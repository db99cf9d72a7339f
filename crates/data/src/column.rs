//! Typed columnar arrays with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::value::{DataType, Value};
use cv_common::{CvError, Result};
use std::sync::Arc;

/// The physical buffer of a column. Nulls occupy a slot with an arbitrary
/// placeholder; validity lives in [`Column::validity`].
#[derive(Clone, Debug)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Date(Vec<i32>),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Date(_) => DataType::Date,
        }
    }
}

/// Borrowed typed rows of a column, exactly its window: `view[i]` is row
/// `i` of the column whatever the backing buffer holds before or after it.
/// Every operator and kernel reads columns through this (or the typed
/// accessors built on it), never through the buffer.
#[derive(Clone, Copy, Debug)]
pub enum ColumnView<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [String]),
    Date(&'a [i32]),
}

/// One column of a table: a row window over a shared typed buffer + optional
/// validity bitmap (`None` means every row is valid).
///
/// The buffer is behind an `Arc`, so cloning a column (and hence a table)
/// is a reference bump, never a data copy — view-store reads, catalog
/// publishes and spool snapshots all share one immutable buffer. Columns
/// are never mutated in place; every operator builds fresh buffers.
///
/// A column built from values covers its whole buffer (it is *compact*).
/// [`Column::slice`] narrows the window without touching the buffer, which
/// is how chunked operators walk a table; every accessor is relative to
/// the window. A windowed column keeps its whole parent buffer alive, so a
/// table that leaves a query is compacted first ([`Column::compact`]).
#[derive(Clone, Debug)]
pub struct Column {
    data: Arc<ColumnData>,
    /// First buffer row of the window.
    offset: usize,
    /// Rows in the window.
    len: usize,
    /// Window-relative: bit `i` is row `i` of the column.
    validity: Option<Bitmap>,
}

impl Column {
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Column {
        if let Some(v) = &validity {
            assert_eq!(v.len(), data.len(), "validity length mismatch");
        }
        Column { offset: 0, len: data.len(), data: Arc::new(data), validity }
    }

    /// Build a column of the given type from row values, validating types.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Column> {
        let mut b = ColumnBuilder::new(dtype);
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// The backing buffer. It is the column's rows only for a compact
    /// column — which every column that leaves a query is; code that may
    /// meet a window reads [`Column::view`] instead (debug builds assert).
    pub fn data(&self) -> &ColumnData {
        debug_assert!(self.is_compact(), "Column::data() on a windowed column; use view()");
        &self.data
    }

    /// The column's rows as a typed slice (window-relative).
    #[inline]
    pub fn view(&self) -> ColumnView<'_> {
        let w = self.offset..self.offset + self.len;
        match &*self.data {
            ColumnData::Bool(v) => ColumnView::Bool(&v[w]),
            ColumnData::Int(v) => ColumnView::Int(&v[w]),
            ColumnData::Float(v) => ColumnView::Float(&v[w]),
            ColumnData::Str(v) => ColumnView::Str(&v[w]),
            ColumnData::Date(v) => ColumnView::Date(&v[w]),
        }
    }

    /// True if the window covers the whole backing buffer: the column
    /// retains exactly the rows it exposes.
    pub fn is_compact(&self) -> bool {
        self.offset == 0 && self.len == self.data.len()
    }

    /// This column over a buffer of its own rows only: a no-op for a
    /// compact column, one copy of the window otherwise. Validity is kept
    /// verbatim.
    pub fn compact(self) -> Column {
        if self.is_compact() {
            return self;
        }
        let data = match self.view() {
            ColumnView::Bool(v) => ColumnData::Bool(v.to_vec()),
            ColumnView::Int(v) => ColumnData::Int(v.to_vec()),
            ColumnView::Float(v) => ColumnData::Float(v.to_vec()),
            ColumnView::Str(v) => ColumnData::Str(v.to_vec()),
            ColumnView::Date(v) => ColumnData::Date(v.to_vec()),
        };
        Column::new(data, self.validity)
    }

    /// Validity bitmap; `None` means every row is valid.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// Drop an all-true validity bitmap — the canonical form the builders
    /// produce, so `byte_size` stays identical across code paths.
    pub fn normalize_validity(mut self) -> Column {
        if self.validity.as_ref().is_some_and(Bitmap::all_true) {
            self.validity = None;
        }
        self
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            Some(v) => !v.get(i),
            None => false,
        }
    }

    pub fn null_count(&self) -> usize {
        match &self.validity {
            Some(v) => v.len() - v.count_set(),
            None => 0,
        }
    }

    /// Row accessor (boxing into [`Value`]; fine off the hot path).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self.view() {
            ColumnView::Bool(v) => Value::Bool(v[i]),
            ColumnView::Int(v) => Value::Int(v[i]),
            ColumnView::Float(v) => Value::Float(v[i]),
            ColumnView::Str(v) => Value::Str(v[i].clone()),
            ColumnView::Date(v) => Value::Date(v[i]),
        }
    }

    /// Typed accessors used by the vectorized kernels; panic on type
    /// mismatch (the planner guarantees types line up).
    pub fn ints(&self) -> &[i64] {
        match self.view() {
            ColumnView::Int(v) => v,
            _ => panic!("expected INT column, got {}", self.dtype()),
        }
    }

    pub fn floats(&self) -> &[f64] {
        match self.view() {
            ColumnView::Float(v) => v,
            _ => panic!("expected FLOAT column, got {}", self.dtype()),
        }
    }

    pub fn bools(&self) -> &[bool] {
        match self.view() {
            ColumnView::Bool(v) => v,
            _ => panic!("expected BOOL column, got {}", self.dtype()),
        }
    }

    pub fn strs(&self) -> &[String] {
        match self.view() {
            ColumnView::Str(v) => v,
            _ => panic!("expected STRING column, got {}", self.dtype()),
        }
    }

    pub fn dates(&self) -> &[i32] {
        match self.view() {
            ColumnView::Date(v) => v,
            _ => panic!("expected DATE column, got {}", self.dtype()),
        }
    }

    /// Keep rows where the selection mask is set. An all-true mask returns a
    /// shared column (reference bump, no copy) — the common case when a
    /// predicate was folded away or selects everything.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        assert_eq!(mask.len(), self.len());
        if mask.all_true() {
            return self.clone();
        }
        self.take(&mask.ones())
    }

    /// Gather rows by index (indices may repeat or reorder) into a fresh
    /// compact buffer.
    pub fn take(&self, indices: &[usize]) -> Column {
        fn gather<T: Clone>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        let data = match self.view() {
            ColumnView::Bool(v) => ColumnData::Bool(gather(v, indices)),
            ColumnView::Int(v) => ColumnData::Int(gather(v, indices)),
            ColumnView::Float(v) => ColumnData::Float(gather(v, indices)),
            ColumnView::Str(v) => ColumnData::Str(gather(v, indices)),
            ColumnView::Date(v) => ColumnData::Date(gather(v, indices)),
        };
        Column::new(data, self.validity.as_ref().map(|v| v.take(indices)))
    }

    /// Gather rows by index, where `sentinel` marks a padded NULL row (the
    /// join builds outer-miss rows this way). The result always carries a
    /// validity bitmap: the pad row is NULL by construction.
    pub fn take_padded(&self, indices: &[usize], sentinel: usize) -> Column {
        fn gather<T: Clone + Default>(v: &[T], idx: &[usize], s: usize) -> Vec<T> {
            idx.iter().map(|&i| if i == s { T::default() } else { v[i].clone() }).collect()
        }
        let data = match self.view() {
            ColumnView::Bool(v) => ColumnData::Bool(gather(v, indices, sentinel)),
            ColumnView::Int(v) => ColumnData::Int(gather(v, indices, sentinel)),
            ColumnView::Float(v) => ColumnData::Float(gather(v, indices, sentinel)),
            ColumnView::Str(v) => ColumnData::Str(gather(v, indices, sentinel)),
            ColumnView::Date(v) => ColumnData::Date(gather(v, indices, sentinel)),
        };
        let mut validity = Bitmap::all_set(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            if i == sentinel || self.is_null(i) {
                validity.set(j, false);
            }
        }
        Column::new(data, Some(validity))
    }

    /// True if both columns share one underlying buffer (zero-copy check
    /// for the chunk-identity fast paths).
    pub fn ptr_eq(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The row range `[offset, offset + len)` as a window over the same
    /// buffer: a reference bump plus a `len / 8`-byte validity copy, no row
    /// is copied. Validity presence is preserved verbatim (an all-true
    /// bitmap stays a bitmap) so slicing then reassembling a column is
    /// byte-exact; pipeline boundaries canonicalize separately via
    /// [`Column::normalize_validity`].
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(offset + len <= self.len, "column slice out of range");
        if offset == 0 && len == self.len {
            return self.clone();
        }
        Column {
            data: Arc::clone(&self.data),
            offset: self.offset + offset,
            len,
            validity: self.validity.as_ref().map(|v| v.slice(offset, len)),
        }
    }

    /// Concatenate a run of same-typed columns in order (single allocation,
    /// no pairwise O(n²) reassembly). The result carries a validity bitmap
    /// only if some part has nulls — the same canonical form the builders
    /// produce, so reassembled chunk sequences are byte-identical to a
    /// monolithic build. A single-part concat is a reference bump, no copy.
    pub fn concat_many(parts: &[Column]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return Err(CvError::internal("concat_many of zero columns"));
        };
        if parts.len() == 1 {
            return Ok(first.clone().normalize_validity());
        }
        let dtype = first.dtype();
        if let Some(bad) = parts.iter().find(|p| p.dtype() != dtype) {
            return Err(CvError::exec(format!("cannot concat {} with {}", dtype, bad.dtype())));
        }
        let total: usize = parts.iter().map(Column::len).sum();
        macro_rules! splice {
            ($variant:ident) => {{
                let mut buf = Vec::with_capacity(total);
                for p in parts {
                    let ColumnView::$variant(v) = p.view() else {
                        unreachable!("dtype equality checked above")
                    };
                    buf.extend_from_slice(v);
                }
                ColumnData::$variant(buf)
            }};
        }
        let data = match dtype {
            DataType::Bool => splice!(Bool),
            DataType::Int => splice!(Int),
            DataType::Float => splice!(Float),
            DataType::Str => splice!(Str),
            DataType::Date => splice!(Date),
        };
        let validity = if parts.iter().any(|p| p.null_count() > 0) {
            let mut v = Bitmap::all_clear(0);
            for p in parts {
                for i in 0..p.len() {
                    v.push(!p.is_null(i));
                }
            }
            Some(v)
        } else {
            None
        };
        Ok(Column::new(data, validity))
    }

    /// Concatenate two same-typed columns (typed buffer append, no per-row
    /// boxing); [`Column::concat_many`] of the pair.
    pub fn concat(&self, other: &Column) -> Result<Column> {
        Column::concat_many(&[self.clone(), other.clone()])
    }

    /// Approximate in-memory byte size of the column's rows (storage
    /// accounting for views) — the window's, not the backing buffer's.
    pub fn byte_size(&self) -> u64 {
        let base = match self.view() {
            ColumnView::Bool(v) => v.len() as u64,
            ColumnView::Int(v) => v.len() as u64 * 8,
            ColumnView::Float(v) => v.len() as u64 * 8,
            ColumnView::Str(v) => v.iter().map(|s| s.len() as u64 + 4).sum(),
            ColumnView::Date(v) => v.len() as u64 * 4,
        };
        base + self.validity.as_ref().map_or(0, |v| v.len() as u64 / 8)
    }
}

/// Incremental column builder.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Bitmap,
    has_null: bool,
}

impl ColumnBuilder {
    pub fn new(dtype: DataType) -> ColumnBuilder {
        let data = match dtype {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        };
        ColumnBuilder { data, validity: Bitmap::all_clear(0), has_null: false }
    }

    pub fn with_capacity(dtype: DataType, cap: usize) -> ColumnBuilder {
        let data = match dtype {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(cap)),
        };
        ColumnBuilder { data, validity: Bitmap::all_clear(0), has_null: false }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a value; `Null` is accepted for any type, `Int` coerces into
    /// `Float`/`Date` columns (planner-inserted casts make this rare).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        match (&mut self.data, v) {
            (ColumnData::Bool(buf), Value::Bool(b)) => buf.push(*b),
            (ColumnData::Int(buf), Value::Int(i)) => buf.push(*i),
            (ColumnData::Float(buf), Value::Float(f)) => buf.push(*f),
            (ColumnData::Float(buf), Value::Int(i)) => buf.push(*i as f64),
            (ColumnData::Str(buf), Value::Str(s)) => buf.push(s.clone()),
            (ColumnData::Date(buf), Value::Date(d)) => buf.push(*d),
            (ColumnData::Date(buf), Value::Int(i)) => buf.push(*i as i32),
            (data, v) => {
                return Err(CvError::exec(format!(
                    "type mismatch: cannot push {v} into {} column",
                    data.dtype()
                )))
            }
        }
        self.validity.push(true);
        Ok(())
    }

    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Bool(buf) => buf.push(false),
            ColumnData::Int(buf) => buf.push(0),
            ColumnData::Float(buf) => buf.push(0.0),
            ColumnData::Str(buf) => buf.push(String::new()),
            ColumnData::Date(buf) => buf.push(0),
        }
        self.validity.push(false);
        self.has_null = true;
    }

    pub fn finish(self) -> Column {
        let validity = if self.has_null { Some(self.validity) } else { None };
        Column::new(self.data, validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[Option<i64>]) -> Column {
        let values: Vec<Value> = vals.iter().map(|v| v.map_or(Value::Null, Value::Int)).collect();
        Column::from_values(DataType::Int, &values).unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let c = int_col(&[Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert!(c.value(1).is_null());
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.dtype(), DataType::Int);
    }

    #[test]
    fn no_nulls_means_no_validity_allocation() {
        let c = int_col(&[Some(1), Some(2)]);
        assert_eq!(c.null_count(), 0);
        assert!(!c.is_null(0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = Column::from_values(DataType::Int, &[Value::Str("x".into())]).unwrap_err();
        assert_eq!(err.kind(), "execution");
    }

    #[test]
    fn int_coerces_to_float() {
        let c = Column::from_values(DataType::Float, &[Value::Int(2), Value::Float(0.5)]).unwrap();
        assert_eq!(c.value(0), Value::Float(2.0));
        assert_eq!(c.floats(), &[2.0, 0.5]);
    }

    #[test]
    fn filter_preserves_nulls() {
        let c = int_col(&[Some(1), None, Some(3), None]);
        let f = c.filter(&Bitmap::from_bools(&[true, true, false, true]));
        assert_eq!(f.len(), 3);
        assert_eq!(f.value(0), Value::Int(1));
        assert!(f.value(1).is_null());
        assert!(f.value(2).is_null());
    }

    #[test]
    fn filter_all_true_shares_the_buffer() {
        let c = int_col(&[Some(1), None, Some(3)]);
        let f = c.filter(&Bitmap::all_set(3));
        assert!(c.ptr_eq(&f));
        assert_eq!(f.null_count(), 1);
    }

    #[test]
    fn take_padded_nulls_at_sentinel() {
        let c = int_col(&[Some(10), None, Some(30)]);
        let t = c.take_padded(&[2, usize::MAX, 1, 0], usize::MAX);
        assert_eq!(t.value(0), Value::Int(30));
        assert!(t.value(1).is_null());
        assert!(t.value(2).is_null());
        assert_eq!(t.value(3), Value::Int(10));
        assert!(t.validity().is_some());
    }

    #[test]
    fn normalize_validity_drops_all_true() {
        let c = int_col(&[Some(1), None, Some(3)]);
        // Filtering out the null leaves an all-true bitmap behind.
        let f = c.filter(&Bitmap::from_bools(&[true, false, true]));
        assert!(f.validity().is_some());
        let n = f.normalize_validity();
        assert!(n.validity().is_none());
        assert_eq!(n.value(1), Value::Int(3));
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = int_col(&[Some(10), Some(20), None]);
        let t = c.take(&[2, 0, 0, 1]);
        assert_eq!(t.len(), 4);
        assert!(t.value(0).is_null());
        assert_eq!(t.value(1), Value::Int(10));
        assert_eq!(t.value(3), Value::Int(20));
    }

    #[test]
    fn concat_same_type() {
        let a = int_col(&[Some(1)]);
        let b = int_col(&[None, Some(2)]);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.value(1).is_null());
    }

    #[test]
    fn concat_type_mismatch_fails() {
        let a = int_col(&[Some(1)]);
        let b = Column::from_values(DataType::Str, &[Value::Str("x".into())]).unwrap();
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn string_column_roundtrip() {
        let c = Column::from_values(
            DataType::Str,
            &[Value::Str("asia".into()), Value::Null, Value::Str("emea".into())],
        )
        .unwrap();
        assert_eq!(c.value(0), Value::Str("asia".into()));
        assert_eq!(c.strs()[2], "emea");
        assert!(c.byte_size() > 0);
    }

    #[test]
    fn typed_accessor_panics_on_wrong_type() {
        let c = int_col(&[Some(1)]);
        let res = std::panic::catch_unwind(|| c.floats().len());
        assert!(res.is_err());
    }

    #[test]
    fn clone_shares_the_buffer() {
        let c = int_col(&(0..1000).map(Some).collect::<Vec<_>>());
        let d = c.clone();
        assert!(c.ptr_eq(&d));
        assert_eq!(d.ints(), c.ints());
    }

    #[test]
    fn byte_size_scales_with_rows() {
        let small = int_col(&[Some(1)]);
        let big = int_col(&(0..100).map(Some).collect::<Vec<_>>());
        assert!(big.byte_size() > small.byte_size());
    }
}
