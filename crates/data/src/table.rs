//! Columnar tables: the unit of data the executor operates on.
//!
//! A [`Table`] is one contiguous chunk of rows. Morsel-driven execution
//! slices tables into fixed-size chunks ([`crate::chunk::chunk_ranges`],
//! default [`crate::chunk::DEFAULT_CHUNK_SIZE`] rows) that stream through
//! operator pipelines one at a time; every chunk is itself a `Table`, so
//! operators need no second code path.

use crate::column::{Column, ColumnBuilder, Gather};
use crate::schema::SchemaRef;
use crate::value::Value;
use cv_common::{CvError, Result};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An immutable columnar table — one contiguous chunk of rows.
///
/// Each column is a row window over a buffer behind an `Arc`, so cloning,
/// slicing any range, or gathering an identity prefix are reference bumps.
/// Heavy operators process tables as sequences of fixed-size chunks (each
/// chunk a `Table` of its own, a window over the input's buffers) and
/// morsel-schedule the chunks across worker threads; pipeline breakers
/// reassemble with [`Table::from_chunks`]. A table that leaves a query is
/// compacted ([`Table::compact`]) so it retains only the rows it holds.
#[derive(Clone, Debug)]
pub struct Table {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(CvError::internal(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(CvError::internal(format!(
                    "column {i} has {} rows, expected {rows}",
                    c.len()
                )));
            }
            if c.dtype() != schema.field(i).dtype {
                return Err(CvError::internal(format!(
                    "column {i} is {}, schema says {}",
                    c.dtype(),
                    schema.field(i).dtype
                )));
            }
        }
        Ok(Table { schema, columns, rows })
    }

    /// Empty table with the given schema.
    pub fn empty(schema: SchemaRef) -> Table {
        let columns =
            schema.fields().iter().map(|f| ColumnBuilder::new(f.dtype).finish()).collect();
        Table { schema, columns, rows: 0 }
    }

    /// Build from row-major values (tests, data generators).
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Table> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.dtype, rows.len()))
            .collect();
        for (rix, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(CvError::exec(format!(
                    "row {rix} has {} values, schema expects {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
        Table::new(schema, columns)
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One row as values (test/debug path).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows (test/debug path).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        Ok(self.take_ids(Cow::Borrowed(indices)))
    }

    fn take_ids(&self, indices: Cow<'_, [usize]>) -> Table {
        // Identity-prefix gather (rows 0..k, in order) needs no per-row
        // gather at all: the full-table case shares the buffers outright
        // (the common case when an FK join matches each probe row exactly
        // once), and a proper prefix is a window over them.
        if indices.iter().enumerate().all(|(j, &i)| j == i) {
            return self.slice(0, indices.len());
        }
        self.gather(indices.into_owned())
    }

    /// [`Table::take`] for a caller that knows `indices` are not a prefix
    /// of the table's rows (or does not care): no scan for that case, and
    /// the vector becomes the one every output column shares. Columns are
    /// deferred ([`Column::take`]): none is copied until it is read.
    pub fn gather(&self, indices: Vec<usize>) -> Table {
        self.gathered(indices, false)
    }

    /// [`Table::gather`] where [`crate::column::PAD`] marks a NULL row in
    /// every column ([`Column::take_padded`]).
    pub fn gather_padded(&self, indices: Vec<usize>) -> Table {
        self.gathered(indices, true)
    }

    fn gathered(&self, indices: Vec<usize>, padded: bool) -> Table {
        let rows = indices.len();
        let mut gather = Gather::new(indices, padded);
        let columns = self.columns.iter().map(|c| gather.column(c)).collect();
        Table { schema: self.schema.clone(), columns, rows }
    }

    /// The row range `[offset, offset + len)` as windows over the same
    /// column buffers ([`Column::slice`]): O(columns), no row is copied.
    pub fn slice(&self, offset: usize, len: usize) -> Table {
        if offset == 0 && len == self.rows {
            return self.clone();
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.slice(offset, len)).collect();
        Table { schema: self.schema.clone(), columns, rows: len }
    }

    /// True if every column retains exactly the rows it exposes.
    pub fn is_compact(&self) -> bool {
        self.columns.iter().all(Column::is_compact)
    }

    /// This table over buffers of its own rows only ([`Column::compact`]):
    /// a no-op unless some column is a window. The boundary rule: results,
    /// views, spool chunks and catalog contents are compact, so no window
    /// outlives the query that cut it and `Column::data()` is always the
    /// column's rows out there.
    pub fn compact(self) -> Table {
        let columns = self.columns.into_iter().map(Column::compact).collect();
        Table { schema: self.schema, columns, rows: self.rows }
    }

    /// Canonicalize every column's validity representation (drop all-true
    /// bitmaps). Chunked pipelines normalize at operator boundaries so the
    /// output bytes do not depend on the chunk size that produced them.
    pub fn normalized(self) -> Table {
        let columns = self.columns.into_iter().map(Column::normalize_validity).collect();
        Table { schema: self.schema, columns, rows: self.rows }
    }

    /// Reassemble a pipeline-breaker input from a sequence of chunks (all
    /// sharing `schema`). The result is normalized, so it is byte-identical
    /// no matter how the row stream was chunked.
    pub fn from_chunks(schema: SchemaRef, chunks: &[Table]) -> Result<Table> {
        if chunks.is_empty() {
            return Ok(Table::empty(schema));
        }
        if chunks.len() == 1 {
            return Ok(chunks[0].clone().normalized());
        }
        let mut columns = Vec::with_capacity(schema.len());
        for ci in 0..schema.len() {
            let parts: Vec<Column> = chunks.iter().map(|t| t.columns[ci].clone()).collect();
            columns.push(Column::concat_many(&parts)?);
        }
        Table::new(schema, columns)
    }

    /// Project columns by index, producing the projected schema.
    pub fn project(&self, indices: &[usize]) -> Result<Table> {
        let schema = Arc::new(self.schema.project(indices));
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Table::new(schema, columns)
    }

    /// Concatenate vertically with another table of the same schema.
    pub fn concat(&self, other: &Table) -> Result<Table> {
        if self.schema.fields() != other.schema.fields() {
            return Err(CvError::exec(format!(
                "union schema mismatch: {} vs {}",
                self.schema, other.schema
            )));
        }
        let columns: Result<Vec<Column>> =
            self.columns.iter().zip(&other.columns).map(|(a, b)| a.concat(b)).collect();
        Table::new(self.schema.clone(), columns?)
    }

    /// The first `limit` rows of a stable sort by the given column indices
    /// (ascending flags parallel) — every row when `limit` is at least the
    /// row count: a gather through [`crate::sortkey::order_rows`]. NULLs sort
    /// first ascending (mirroring `Value::total_cmp`, where Null is the
    /// smallest rank), floats by `f64::total_cmp` so NaN and signed zero
    /// order deterministically.
    pub fn sort_by(&self, keys: &[(usize, bool)], limit: usize) -> Result<Table> {
        let key_cols: Vec<(&Column, bool)> =
            keys.iter().map(|&(ci, asc)| (&self.columns[ci], asc)).collect();
        let order = crate::sortkey::order_rows(&key_cols, self.rows, limit)?;
        Ok(self.take_ids(Cow::Owned(order)))
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Render the first `limit` rows as an ASCII table (examples/debugging).
    pub fn pretty(&self, limit: usize) -> String {
        let mut out = String::new();
        let names: Vec<String> = self.schema.fields().iter().map(|f| f.name.clone()).collect();
        let shown = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            cells.push(self.row(i).iter().map(|v| v.to_string()).collect());
        }
        let mut widths: Vec<usize> = names.iter().map(String::len).collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        if self.rows > shown {
            out.push_str(&format!("({} more rows)\n", self.rows - shown));
        }
        out
    }

    /// Canonical row multiset for order-insensitive result comparison in
    /// tests: rows rendered to strings and sorted. Test-side only — it builds
    /// a `Value` and a `String` per cell; the serving path compares tables by
    /// [`crate::digest::content_digest`], which tests hold to this.
    pub fn canonical_rows(&self) -> Vec<String> {
        let mut rows: Vec<String> = (0..self.rows)
            .map(|i| self.row(i).iter().map(Value::to_string).collect::<Vec<_>>().join("|"))
            .collect();
        rows.sort();
        rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::column::{ColumnData, PAD};
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn demo() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ])
        .unwrap()
        .into_ref();
        Table::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Str("a".into()), Value::Float(0.5)],
                vec![Value::Int(3), Value::Str("c".into()), Value::Null],
                vec![Value::Int(2), Value::Str("b".into()), Value::Float(1.5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_roundtrip() {
        let t = demo();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.row(1)[0], Value::Int(3));
        assert!(t.row(1)[2].is_null());
    }

    #[test]
    fn row_arity_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]).unwrap().into_ref();
        let err = Table::from_rows(schema, &[vec![Value::Int(1), Value::Int(2)]]).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn column_count_must_match_schema() {
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]).unwrap().into_ref();
        assert!(Table::new(schema, vec![]).is_err());
    }

    #[test]
    fn take_project() {
        let t = demo();
        let tk = t.take(&[2, 2]).unwrap();
        assert_eq!(tk.num_rows(), 2);
        assert_eq!(tk.row(0)[0], Value::Int(2));

        let p = t.project(&[1]).unwrap();
        assert_eq!(p.schema().names(), vec!["name"]);
        assert_eq!(p.num_columns(), 1);
    }

    #[test]
    fn sort_ascending_and_descending() {
        let t = demo();
        let asc = t.sort_by(&[(0, true)], usize::MAX).unwrap();
        assert_eq!(
            asc.to_rows().iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        let desc = t.sort_by(&[(0, false)], usize::MAX).unwrap();
        assert_eq!(desc.row(0)[0], Value::Int(3));
    }

    #[test]
    fn sort_nulls_first() {
        let t = demo();
        let sorted = t.sort_by(&[(2, true)], usize::MAX).unwrap();
        assert!(sorted.row(0)[2].is_null());
    }

    #[test]
    fn concat_and_schema_mismatch() {
        let t = demo();
        let u = t.concat(&t).unwrap();
        assert_eq!(u.num_rows(), 6);
        let other =
            Table::empty(Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref());
        assert!(t.concat(&other).is_err());
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(demo().schema().clone());
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.byte_size(), 0);
    }

    #[test]
    fn canonical_rows_order_insensitive() {
        let t = demo();
        let shuffled = t.take(&[2, 0, 1]).unwrap();
        assert_eq!(t.canonical_rows(), shuffled.canonical_rows());
    }

    /// Random table over every column type with NULLs, NaN, both zero
    /// signs and empty strings; one column carries an all-true bitmap so
    /// validity *presence* is exercised, not just null positions.
    fn random_table(rng: &mut cv_common::rng::DetRng, rows: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("b", DataType::Bool),
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Date),
            Field::new("v", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        let mut data: Vec<Vec<Value>> = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = vec![
                Value::Bool(rng.chance(0.5)),
                Value::Int(rng.range_i64(-9, 9)),
                Value::Float(*rng.choose(&[0.0, -0.0, f64::NAN, 2.5, -7.25])),
                Value::Str((*rng.choose(&["", "a", "bb", "ccc"])).to_string()),
                Value::Date(rng.range_i64(-5, 5) as i32),
                Value::Int(0), // replaced below by a column with an all-true bitmap
            ];
            for cell in row.iter_mut().take(5) {
                if rng.chance(0.2) {
                    *cell = Value::Null;
                }
            }
            data.push(row);
        }
        let t = Table::from_rows(schema.clone(), &data).unwrap();
        let mut columns = t.columns().to_vec();
        let ints = (0..rows as i64).collect();
        columns[5] = Column::new(ColumnData::Int(ints), Some(Bitmap::all_set(rows)));
        Table::new(schema, columns).unwrap()
    }

    /// Byte-for-byte: rows, null slots' placeholders, and validity presence.
    fn assert_identical(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.num_rows(), b.num_rows(), "rows for {what}");
        assert_eq!(a.byte_size(), b.byte_size(), "byte size for {what}");
        for (ca, cb) in a.columns().iter().zip(b.columns()) {
            assert_eq!(ca.len(), cb.len(), "len for {what}");
            assert_eq!(ca.validity(), cb.validity(), "validity for {what}");
            let (ca, cb) = (ca.clone().compact(), cb.clone().compact());
            assert_eq!(format!("{:?}", ca.data()), format!("{:?}", cb.data()), "cells for {what}");
        }
    }

    #[test]
    fn every_accessor_over_a_window_equals_its_compacted_copy() {
        let mut rng = cv_common::rng::DetRng::seed(0x77);
        for round in 0..200 {
            let rows = [0, 1, 2, 63, 64, 65, 130][round % 7];
            let t = random_table(&mut rng, rows);
            let off = rng.range_usize(0, rows + 1);
            let len = rng.range_usize(0, rows - off + 1);
            let w = t.slice(off, len);
            let c = w.clone().compact();
            let what = format!("round {round}: {off}+{len} of {rows}");
            assert!(c.is_compact());
            assert_eq!(w.is_compact(), off == 0 && len == rows, "{what}");
            assert!(len == 0 || w.column(0).ptr_eq(t.column(0)), "slice copied rows: {what}");
            assert_identical(&w, &c, &what);
            assert_eq!(w.to_rows().len(), len);
            for ci in 0..w.num_columns() {
                let (wc, cc) = (w.column(ci), c.column(ci));
                assert_eq!(wc.null_count(), cc.null_count(), "{what}");
                for r in 0..len {
                    assert_eq!(wc.is_null(r), t.column(ci).is_null(off + r), "{what}");
                    let (a, b) = (wc.value(r), t.column(ci).value(off + r));
                    assert!(a.total_cmp(&b).is_eq(), "{what}: row {r} col {ci}: {a} vs {b}");
                }
            }
            for i in [0, 1, 3, 4] {
                assert_eq!(w.column(i).view(), c.column(i).view(), "{what}");
            }

            // A window of a window composes offsets.
            let o2 = rng.range_usize(0, len + 1);
            let l2 = rng.range_usize(0, len - o2 + 1);
            assert_identical(&w.slice(o2, l2), &t.slice(off + o2, l2), &what);

            // Gathers, sorts and concats read through the window.
            let idx: Vec<usize> = (0..len * 2).map(|_| rng.range_usize(0, len)).collect();
            assert_identical(&w.take(&idx).unwrap(), &c.take(&idx).unwrap(), &what);
            let prefix: Vec<usize> = (0..len / 2).collect();
            assert_identical(&w.take(&prefix).unwrap(), &c.take(&prefix).unwrap(), &what);
            let padded: Vec<usize> =
                idx.iter().map(|&i| if i % 3 == 0 { usize::MAX } else { i }).collect();
            for ci in 0..w.num_columns() {
                let (a, b) = (w.column(ci).take_padded(&padded), c.column(ci).take_padded(&padded));
                assert_eq!(a.validity(), b.validity(), "{what}");
                assert_eq!(format!("{:?}", a.data()), format!("{:?}", b.data()), "{what}");
            }
            let keys = [(2, true), (3, false), (1, true)];
            assert_identical(
                &w.sort_by(&keys, usize::MAX).unwrap(),
                &c.sort_by(&keys, usize::MAX).unwrap(),
                &what,
            );
            assert_identical(&w.concat(&w).unwrap(), &c.concat(&c).unwrap(), &what);
            assert_identical(&w.clone().normalized(), &c.clone().normalized(), &what);
        }
    }

    /// The reference for a deferred gather: the same rows built cell by
    /// cell, NULL at [`PAD`]. Validity is present exactly when the eager
    /// `take` / `take_padded` produced one.
    fn eager(source: &Column, ids: &[usize], padded: bool) -> Column {
        let cells: Vec<Value> =
            ids.iter().map(|&i| if i == PAD { Value::Null } else { source.value(i) }).collect();
        let built = Column::from_values(source.dtype(), &cells).unwrap();
        let valid: Vec<bool> = cells.iter().map(|v| !v.is_null()).collect();
        let validity = (padded || source.validity().is_some()).then(|| Bitmap::from_bools(&valid));
        Column::new(built.data().clone(), validity)
    }

    /// `got` is `want` on everything but where its rows are: validity
    /// presence and bits, bytes, cells. Sizing it and boxing its cells gather
    /// nothing; its typed rows do, and change no cell.
    fn assert_same_column(got: &Column, want: &Column, what: &str) {
        let was_forced = got.is_forced();
        assert_eq!((got.len(), got.dtype()), (want.len(), want.dtype()), "{what}");
        assert_eq!(got.validity(), want.validity(), "validity (presence included) of {what}");
        assert_eq!(got.null_count(), want.null_count(), "{what}");
        assert_eq!(got.byte_size(), want.byte_size(), "byte size of {what}");
        let assert_cells = || {
            for i in 0..got.len() {
                assert_eq!(got.is_null(i), want.is_null(i), "{what}: row {i}");
                let (a, b) = (got.value(i), want.value(i));
                assert!(a.total_cmp(&b).is_eq(), "{what}: row {i}: {a} vs {b}");
            }
        };
        assert_cells();
        assert_eq!(got.is_forced(), was_forced, "sizing {what} or boxing its cells gathered it");
        got.view();
        assert!(got.is_forced(), "{what}: read but not gathered");
        assert_cells();
        let compacted = got.clone().compact();
        assert!(compacted.is_compact(), "{what}");
        assert_eq!(format!("{:?}", compacted.data()), format!("{:?}", want.data()), "{what}");
        assert_eq!(got.byte_size(), want.byte_size(), "byte size of {what} once gathered");
    }

    #[test]
    fn a_deferred_column_is_its_eager_gather() {
        let mut rng = cv_common::rng::DetRng::seed(0x79);
        for round in 0..120 {
            let rows = [1, 2, 63, 64, 65, 130][round % 6];
            let t = random_table(&mut rng, rows);
            // Every other round the source is itself a window.
            let off = if round % 2 == 0 { 0 } else { rng.range_usize(0, rows) };
            let src = t.slice(off, rng.range_usize(1, rows - off + 1));
            let n = src.num_rows();
            let ids = |rng: &mut cv_common::rng::DetRng, of: usize, len: usize, pad: bool| {
                let id = |rng: &mut cv_common::rng::DetRng| match pad && rng.chance(0.25) {
                    true => PAD,
                    false => rng.range_usize(0, of),
                };
                (0..len).map(|_| id(rng)).collect::<Vec<usize>>()
            };
            let a = ids(&mut rng, n, 2 * n, false);
            let p = ids(&mut rng, n, 2 * n, true);
            let b = ids(&mut rng, 2 * n, n + 3, false);
            let bp = ids(&mut rng, 2 * n, n + 3, true);
            let (w_off, w_len) = (rng.range_usize(0, n), rng.range_usize(0, n + 1));
            // The table-level gathers share one id vector between columns.
            let (t_take, t_pad) = (src.gather(a.clone()), src.gather_padded(p.clone()));

            for (ci, c) in src.columns().iter().enumerate() {
                let what = format!("round {round}, column {ci}");
                let (want_a, want_p) = (eager(c, &a, false), eager(c, &p, true));
                let (take, padded) = (c.take(&a), c.take_padded(&p));
                assert!(!take.is_forced() && !padded.is_forced() && !take.is_compact(), "{what}");

                // Length, type, NULLs, validity, bytes, slices and validity
                // normalisation never gather; a gather of a gather composes
                // the ids (a pad stays a pad) and reads the first source.
                let window = take.slice(w_off, w_len);
                let normal = padded.clone().normalize_validity();
                let (twice, over_pad) = (take.take(&b), padded.take(&b));
                let (pad_twice, pad_over) = (padded.take_padded(&bp), take.take_padded(&bp));
                let composed =
                    [&take, &padded, &window, &normal, &twice, &over_pad, &pad_twice, &pad_over];
                assert!(composed.iter().all(|c| !c.is_forced()), "{what}: something gathered");
                // Compacting an unread window gathers that window alone.
                let own = window.clone().compact();
                assert!(own.is_compact() && !take.is_forced(), "{what}");
                let want_window = want_a.slice(w_off, w_len).compact();
                assert_same_column(&own, &want_window, &what);

                assert_same_column(&twice, &eager(&want_a, &b, false), &what);
                assert_same_column(&over_pad, &eager(&want_p, &b, false), &what);
                assert_same_column(&pad_twice, &eager(&want_p, &bp, true), &what);
                assert_same_column(&pad_over, &eager(&want_a, &bp, true), &what);
                assert!(!take.is_forced() && !padded.is_forced(), "{what}: composing gathered");

                assert_same_column(&window, &want_window, &what);
                assert!(take.is_forced(), "{what}: a window's read gathers for all");
                assert_same_column(&take, &want_a, &what);
                assert_same_column(&normal, &want_p.clone().normalize_validity(), &what);
                assert_same_column(&padded, &want_p, &what);
                // Gathered by now: the next gather reads the gathered rows.
                assert_same_column(&take.take(&b), &eager(&want_a, &b, false), &what);
                assert_same_column(
                    &t_take.column(ci).concat(t_pad.column(ci)).unwrap(),
                    &want_a.concat(&want_p).unwrap(),
                    &what,
                );
                assert_same_column(t_take.column(ci), &want_a, &what);
                assert_same_column(t_pad.column(ci), &want_p, &what);
            }
        }
    }

    #[test]
    fn slices_reassemble_byte_identically_at_any_chunk_size() {
        let mut rng = cv_common::rng::DetRng::seed(0x78);
        let t = random_table(&mut rng, 700);
        let whole = t.clone().normalized();
        for chunk_size in [1, 333, 2048, usize::MAX] {
            let chunks: Vec<Table> = crate::chunk::chunk_ranges(700, chunk_size)
                .into_iter()
                .map(|(off, len)| t.slice(off, len))
                .collect();
            let back = Table::from_chunks(t.schema().clone(), &chunks).unwrap();
            assert_identical(&back, &whole, &format!("chunk size {chunk_size}"));
        }
    }

    #[test]
    fn pretty_prints_header_and_rows() {
        let s = demo().pretty(2);
        assert!(s.contains("id"));
        assert!(s.contains("'a'"));
        assert!(s.contains("(1 more rows)"));
    }
}
