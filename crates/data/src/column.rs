//! Typed columnar arrays with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::strs::{StrColumn, StrView};
use crate::value::{DataType, Value};
use cv_common::{CvError, Result};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The physical buffer of a column. Nulls occupy a slot with an arbitrary
/// placeholder; validity lives in [`Column::validity`].
#[derive(Clone, Debug)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(StrColumn),
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

    fn rows(&self, w: Range<usize>) -> ColumnView<'_> {
        match self {
            ColumnData::Bool(v) => ColumnView::Bool(&v[w]),
            ColumnData::Int(v) => ColumnView::Int(&v[w]),
            ColumnData::Float(v) => ColumnView::Float(&v[w]),
            ColumnData::Str(v) => ColumnView::Str(v.view().slice(w)),
            ColumnData::Date(v) => ColumnView::Date(&v[w]),
        }
    }
}

/// Borrowed typed rows of a column, exactly its window: `view[i]` is row
/// `i` of the column whatever the backing buffer holds before or after it.
/// Every operator and kernel reads columns through this, never through the
/// buffer, and matches on the type it expects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ColumnView<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(StrView<'a>),
    Date(&'a [i32]),
}

/// How a string column's rows index the buffer [`Column::str_rows`] returns
/// with them.
#[derive(Clone, Copy, Debug)]
pub enum StrRows<'a> {
    /// Row `i` is buffer row `offset + i`.
    Window(usize),
    /// A gather nobody has read: row `i` is buffer row `base + ids[i]`, and
    /// an id of [`PAD`] is a row the validity calls NULL.
    Gather { base: usize, ids: &'a [usize] },
}

/// Index that [`Column::take_padded`] reads as "no source row": the output
/// row is NULL over the type's default value (a left-outer join miss).
pub const PAD: usize = usize::MAX;

/// A gather not yet performed: the source rows, the row ids to read from
/// them, and the gathered buffer once some reader has asked for it. One node
/// is shared by every window cut from the gathered column, so the rows are
/// copied at most once however many chunks read them — and never if no
/// operator reads the column.
#[derive(Debug)]
struct Deferred {
    source: Arc<ColumnData>,
    /// Buffer row of the source window's row 0; `ids` are relative to it.
    base: usize,
    /// [`PAD`] reads as the type's default value.
    ids: RowIds,
    forced: OnceLock<Arc<ColumnData>>,
}

/// A composition of row ids made at most once, by whichever column of a
/// table gather wants it first, for all of them.
type Composed = Arc<OnceLock<Arc<Vec<usize>>>>;

/// The row ids of a [`Deferred`] gather, into its source.
#[derive(Debug)]
enum RowIds {
    /// One vector for all columns of the same `Table` gather.
    Given(Arc<Vec<usize>>),
    /// A gather taken from a gather nobody had read reads that one's source:
    /// its ids are `outer` read through the window at `offset` of `inner`.
    /// The composition is deferred like the rows are — made when a reader
    /// wants the whole column, never for the rows a window compacts or the
    /// cell that is boxed (`ORDER BY … LIMIT 100` composes nothing for the
    /// columns it only carries).
    Through { outer: Arc<Vec<usize>>, inner: Arc<Vec<usize>>, offset: usize, composed: Composed },
}

impl RowIds {
    fn len(&self) -> usize {
        match self {
            RowIds::Given(ids) | RowIds::Through { outer: ids, .. } => ids.len(),
        }
    }

    /// All of them, composing first if need be.
    fn all(&self) -> &Arc<Vec<usize>> {
        match self {
            RowIds::Given(ids) => ids,
            RowIds::Through { outer, inner, offset, composed } => composed.get_or_init(|| {
                Arc::new(outer.iter().map(|&i| through(inner, *offset, i)).collect())
            }),
        }
    }

    /// The `k`-th, composing nothing that is not composed yet.
    fn at(&self, k: usize) -> usize {
        match self {
            RowIds::Through { outer, inner, offset, composed } if composed.get().is_none() => {
                through(inner, *offset, outer[k])
            }
            _ => self.all()[k],
        }
    }

    /// Those of `window`. A proper window of an uncomposed gather composes
    /// its own rows only.
    fn of(&self, window: Range<usize>) -> Cow<'_, [usize]> {
        match self {
            RowIds::Through { outer, composed, .. }
                if composed.get().is_none() && window.len() < outer.len() =>
            {
                window.map(|k| self.at(k)).collect()
            }
            _ => Cow::Borrowed(&self.all()[window]),
        }
    }
}

/// Row `i` of the window at `offset` of an unread gather's `ids`.
fn through(ids: &[usize], offset: usize, i: usize) -> usize {
    if i == PAD {
        PAD
    } else {
        ids[offset + i]
    }
}

impl Deferred {
    fn gather(&self, ids: &[usize]) -> ColumnData {
        fn rows<T: Clone + Default>(v: &[T], base: usize, ids: &[usize]) -> Vec<T> {
            ids.iter().map(|&i| if i == PAD { T::default() } else { v[base + i].clone() }).collect()
        }
        match &*self.source {
            ColumnData::Bool(v) => ColumnData::Bool(rows(v, self.base, ids)),
            ColumnData::Int(v) => ColumnData::Int(rows(v, self.base, ids)),
            ColumnData::Float(v) => ColumnData::Float(rows(v, self.base, ids)),
            ColumnData::Str(v) => {
                ColumnData::Str(StrColumn::gather(v.view().slice(self.base..v.len()), ids))
            }
            ColumnData::Date(v) => ColumnData::Date(rows(v, self.base, ids)),
        }
    }

    fn force(&self) -> &Arc<ColumnData> {
        self.forced.get_or_init(|| Arc::new(self.gather(self.ids.all())))
    }

    /// True until some reader has gathered the rows.
    fn unread(&self) -> bool {
        self.forced.get().is_none()
    }

    /// The text bytes of the rows of `window`, read off the source through
    /// their ids: a pad is the empty string, and a row of any other type has
    /// no text.
    fn text_len(&self, window: Range<usize>) -> u64 {
        let ColumnData::Str(source) = &*self.source else { return 0 };
        let len =
            |&i: &usize| if i == PAD { 0 } else { source.view().len_of(self.base + i) as u64 };
        self.ids.of(window).iter().map(len).sum()
    }
}

/// Where a column's rows are.
#[derive(Clone, Debug)]
enum Rows {
    Buffer(Arc<ColumnData>),
    Deferred(Arc<Deferred>),
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
///
/// **Late materialisation.** [`Column::take`] and [`Column::take_padded`]
/// return a *deferred* column: validity is computed at once (it is bits),
/// the typed rows are gathered on the first [`Column::view`] — by any window
/// of the column, for all of them. Length, type, NULL-ness, slicing,
/// [`Column::byte_size`] and boxing one cell ([`Column::value`]) never
/// gather, so a filter, sort or join pays only for the columns some operator
/// above it reads — and a reader that can work per source row
/// ([`Column::unread_gather`], or [`Column::str_rows`] for a string
/// buffer's dictionary) need not gather either. A deferred column keeps its
/// source buffer alive; [`Column::compact`] ends that too.
#[derive(Clone, Debug)]
pub struct Column {
    rows: Rows,
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
        Column { offset: 0, len: data.len(), rows: Rows::Buffer(Arc::new(data)), validity }
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
        match &self.rows {
            Rows::Buffer(data) => data.dtype(),
            Rows::Deferred(node) => node.source.dtype(),
        }
    }

    /// The buffer the window is over, gathering it first if it is deferred.
    fn buffer(&self) -> &ColumnData {
        match &self.rows {
            Rows::Buffer(data) => data,
            Rows::Deferred(node) => node.force(),
        }
    }

    /// True if the window covers every row of the (possibly deferred) buffer.
    fn is_whole(&self) -> bool {
        let rows = match &self.rows {
            Rows::Buffer(data) => data.len(),
            Rows::Deferred(node) => node.ids.len(),
        };
        self.offset == 0 && self.len == rows
    }

    /// The backing buffer. It is the column's rows only for a column that
    /// covers its buffer — which every column that leaves a query does; code
    /// that may meet a window reads [`Column::view`] instead (debug builds
    /// assert).
    pub fn data(&self) -> &ColumnData {
        debug_assert!(self.is_whole(), "Column::data() on a windowed column; use view()");
        self.buffer()
    }

    /// The window's rows of the (possibly deferred) buffer.
    fn window(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }

    /// The column's rows as a typed slice (window-relative). The first view
    /// of a deferred column gathers it.
    #[inline]
    pub fn view(&self) -> ColumnView<'_> {
        self.buffer().rows(self.window())
    }

    /// A gather nobody has read yet, as `(source rows, this window's row
    /// ids into them)`, for a reader that can work per *source* row or needs
    /// one cell: it gathers nothing. An id of [`PAD`] is a row the validity
    /// already calls NULL. `None` for a buffer and for a gather some reader
    /// has performed — [`Column::view`] is as cheap there.
    pub fn unread_gather(&self) -> Option<(ColumnView<'_>, &[usize])> {
        match &self.rows {
            Rows::Deferred(node) if node.unread() => Some((
                node.source.rows(node.base..node.source.len()),
                &node.ids.all()[self.window()],
            )),
            _ => None,
        }
    }

    /// A string column's buffer and how the column's rows index it, gathering
    /// nothing: what a reader of the buffer's [`Dictionary`] needs — a
    /// window, a gathered buffer and an unread gather all read the one
    /// dictionary of the buffer under them. `None` for any other type.
    ///
    /// [`Dictionary`]: crate::strs::Dictionary
    pub fn str_rows(&self) -> Option<(&StrColumn, StrRows<'_>)> {
        let (data, rows) = match &self.rows {
            Rows::Deferred(node) if node.unread() => {
                let ids = &node.ids.all()[self.window()];
                (&*node.source, StrRows::Gather { base: node.base, ids })
            }
            Rows::Deferred(node) => (&**node.force(), StrRows::Window(self.offset)),
            Rows::Buffer(data) => (&**data, StrRows::Window(self.offset)),
        };
        match data {
            ColumnData::Str(buffer) => Some((buffer, rows)),
            _ => None,
        }
    }

    /// True if the column retains exactly the rows it exposes: its window
    /// covers a buffer of its own, not a deferred gather's source.
    pub fn is_compact(&self) -> bool {
        matches!(self.rows, Rows::Buffer(_)) && self.is_whole()
    }

    /// Test probe: false while the column is a gather nobody has read.
    #[doc(hidden)]
    pub fn is_forced(&self) -> bool {
        !matches!(&self.rows, Rows::Deferred(node) if node.unread())
    }

    /// This column over a buffer of its own rows only: a no-op for a
    /// compact column, one copy of the window otherwise — for a deferred
    /// column nobody has read, a gather of just the window. Validity is kept
    /// verbatim.
    pub fn compact(self) -> Column {
        let data = match &self.rows {
            Rows::Buffer(_) if self.is_whole() => return self,
            // Other holders of the node see the same gather.
            Rows::Deferred(node) if self.is_whole() => Arc::clone(node.force()),
            Rows::Deferred(node) if node.unread() => {
                Arc::new(node.gather(&node.ids.of(self.window())))
            }
            _ => Arc::new(match self.view() {
                ColumnView::Bool(v) => ColumnData::Bool(v.to_vec()),
                ColumnView::Int(v) => ColumnData::Int(v.to_vec()),
                ColumnView::Float(v) => ColumnData::Float(v.to_vec()),
                ColumnView::Str(v) => ColumnData::Str(v.to_column()),
                ColumnView::Date(v) => ColumnData::Date(v.to_vec()),
            }),
        };
        Column { rows: Rows::Buffer(data), offset: 0, len: self.len, validity: self.validity }
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

    /// Row accessor (boxing into [`Value`]; fine off the hot path). One cell
    /// of an unread gather is read through its row id: boxing a cell never
    /// gathers the column.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        let (rows, at) = match &self.rows {
            Rows::Deferred(node) if node.unread() => match node.ids.at(self.offset + i) {
                PAD => return Value::Null,
                id => (node.source.rows(node.base..node.source.len()), id),
            },
            _ => (self.view(), i),
        };
        match rows {
            ColumnView::Bool(v) => Value::Bool(v[at]),
            ColumnView::Int(v) => Value::Int(v[at]),
            ColumnView::Float(v) => Value::Float(v[at]),
            ColumnView::Str(v) => Value::Str(v.get(at).to_string()),
            ColumnView::Date(v) => Value::Date(v[at]),
        }
    }

    /// Rows by index (indices may repeat or reorder), deferred: see the type
    /// docs. [`Gather`] is the same for several columns at once.
    pub fn take(&self, indices: &[usize]) -> Column {
        Gather::new(indices.to_vec(), false).column(self)
    }

    /// Rows by index where [`PAD`] marks a padded NULL row (the join builds
    /// outer-miss rows this way), deferred like [`Column::take`]. The result
    /// always carries a validity bitmap: the pad row is NULL by construction.
    pub fn take_padded(&self, indices: &[usize]) -> Column {
        Gather::new(indices.to_vec(), true).column(self)
    }

    /// True if both columns share one underlying buffer (zero-copy check
    /// for the chunk-identity fast paths).
    pub fn ptr_eq(&self, other: &Column) -> bool {
        match (&self.rows, &other.rows) {
            (Rows::Buffer(a), Rows::Buffer(b)) => Arc::ptr_eq(a, b),
            (Rows::Deferred(a), Rows::Deferred(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
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
            rows: self.rows.clone(),
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
        let mismatch =
            |p: &Column| CvError::exec(format!("cannot concat {dtype} with {}", p.dtype()));
        let total: usize = parts.iter().map(Column::len).sum();
        macro_rules! splice {
            ($variant:ident) => {{
                let mut buf = Vec::with_capacity(total);
                for p in parts {
                    let ColumnView::$variant(v) = p.view() else { return Err(mismatch(p)) };
                    buf.extend_from_slice(v);
                }
                ColumnData::$variant(buf)
            }};
        }
        let data = match dtype {
            DataType::Bool => splice!(Bool),
            DataType::Int => splice!(Int),
            DataType::Float => splice!(Float),
            DataType::Str => {
                let views = parts
                    .iter()
                    .map(|p| match p.view() {
                        ColumnView::Str(v) => Ok(v),
                        _ => Err(mismatch(p)),
                    })
                    .collect::<Result<Vec<StrView<'_>>>>()?;
                let bytes = views.iter().map(StrView::text_len).sum();
                let mut buf = StrColumn::with_capacity(total, bytes);
                views.into_iter().for_each(|v| buf.extend_from_view(v));
                ColumnData::Str(buf)
            }
            DataType::Date => splice!(Date),
        };
        // Appended by words. No bitmap exists until a part has a NULL: the
        // rows before it are then one run of set bits.
        let mut validity: Option<Bitmap> = None;
        let mut rows = 0;
        for p in parts {
            match (&mut validity, p.validity().filter(|v| !v.all_true())) {
                (Some(out), Some(v)) => out.extend(v),
                (Some(out), None) => out.extend_set(p.len()),
                (None, Some(v)) => {
                    let mut out = Bitmap::all_clear(0);
                    out.extend_set(rows);
                    out.extend(v);
                    validity = Some(out);
                }
                (None, None) => {}
            }
            rows += p.len();
        }
        Ok(Column::new(data, validity))
    }

    /// Concatenate two same-typed columns (typed buffer append, no per-row
    /// boxing); [`Column::concat_many`] of the pair.
    pub fn concat(&self, other: &Column) -> Result<Column> {
        Column::concat_many(&[self.clone(), other.clone()])
    }

    /// Approximate in-memory byte size of the column's rows (storage
    /// accounting for views) — the window's, not the backing buffer's. It is
    /// a function of the rows, not of whether they have been gathered: a
    /// deferred string column is sized through its row ids.
    pub fn byte_size(&self) -> u64 {
        // A string row is its text and a 4-byte offset.
        let width = match self.dtype() {
            DataType::Bool => 1,
            DataType::Int | DataType::Float => 8,
            DataType::Date | DataType::Str => 4,
        };
        let text = match &self.rows {
            Rows::Deferred(node) if node.unread() => node.text_len(self.window()),
            _ => match self.view() {
                ColumnView::Str(v) => v.text_len() as u64,
                _ => 0,
            },
        };
        self.len as u64 * width + text + self.validity.as_ref().map_or(0, |v| v.len() as u64 / 8)
    }
}

/// One gather over any number of columns: the row ids, and what the deferred
/// columns built from them share — the id vector itself, its composition
/// through an unread deferred input (a gather of a gather reads the first
/// source directly, it never gathers twice), and the validity of padded rows.
pub(crate) struct Gather {
    ids: Arc<Vec<usize>>,
    /// [`PAD`] ids are NULL rows and every output carries a bitmap.
    padded: bool,
    /// Where `ids` read through the ids of an unread input node's window
    /// will be composed, per distinct (node ids, window offset).
    composed: Vec<(Arc<Vec<usize>>, usize, Composed)>,
    /// Validity of a padded gather from a column without NULLs: it depends
    /// only on where the pads sit, so it is built once for all such columns.
    pad_validity: Option<Bitmap>,
}

impl Gather {
    pub(crate) fn new(ids: Vec<usize>, padded: bool) -> Gather {
        Gather { ids: Arc::new(ids), padded, composed: Vec::new(), pad_validity: None }
    }

    pub(crate) fn column(&mut self, col: &Column) -> Column {
        let validity = match (&col.validity, self.padded) {
            (None, false) => None,
            (Some(v), false) => Some(v.take(&self.ids)),
            (None, true) => Some(self.pad_validity().clone()),
            (Some(v), true) => {
                let mut out = Bitmap::all_clear(self.ids.len());
                for (j, &i) in self.ids.iter().enumerate() {
                    out.set(j, i != PAD && v.get(i));
                }
                Some(out)
            }
        };
        let given = || RowIds::Given(Arc::clone(&self.ids));
        let (source, base, ids) = match &col.rows {
            Rows::Buffer(data) => (Arc::clone(data), col.offset, given()),
            Rows::Deferred(input) => match input.forced.get() {
                Some(data) => (Arc::clone(data), col.offset, given()),
                None => {
                    let ids = self.through(input.ids.all(), col.offset);
                    (Arc::clone(&input.source), input.base, ids)
                }
            },
        };
        let node = Deferred { source, base, ids, forced: OnceLock::new() };
        Column { rows: Rows::Deferred(Arc::new(node)), offset: 0, len: self.ids.len(), validity }
    }

    fn pad_validity(&mut self) -> &Bitmap {
        self.pad_validity.get_or_insert_with(|| {
            let mut v = Bitmap::all_set(self.ids.len());
            for (j, _) in self.ids.iter().enumerate().filter(|(_, &i)| i == PAD) {
                v.set(j, false);
            }
            v
        })
    }

    fn through(&mut self, inner: &Arc<Vec<usize>>, offset: usize) -> RowIds {
        let same =
            |(of, at, _): &&(Arc<Vec<usize>>, usize, _)| Arc::ptr_eq(of, inner) && *at == offset;
        let composed = match self.composed.iter().find(same) {
            Some((.., composed)) => Arc::clone(composed),
            None => {
                let composed = Composed::default();
                self.composed.push((Arc::clone(inner), offset, Arc::clone(&composed)));
                composed
            }
        };
        RowIds::Through { outer: Arc::clone(&self.ids), inner: Arc::clone(inner), offset, composed }
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
            DataType::Str => ColumnData::Str(StrColumn::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        };
        ColumnBuilder { data, validity: Bitmap::all_clear(0), has_null: false }
    }

    pub fn with_capacity(dtype: DataType, cap: usize) -> ColumnBuilder {
        let data = match dtype {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(StrColumn::with_capacity(cap, 0)),
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
            (ColumnData::Str(buf), Value::Str(s)) => buf.push(s),
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
            ColumnData::Str(buf) => buf.push(""),
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
        assert_eq!(c.view(), ColumnView::Float(&[2.0, 0.5]));
    }

    #[test]
    fn take_padded_nulls_at_sentinel() {
        let c = int_col(&[Some(10), None, Some(30)]);
        let t = c.take_padded(&[2, PAD, 1, 0]);
        assert_eq!(t.value(0), Value::Int(30));
        assert!(t.value(1).is_null());
        assert!(t.value(2).is_null());
        assert_eq!(t.value(3), Value::Int(10));
        assert!(t.validity().is_some());
    }

    #[test]
    fn a_cell_of_an_unread_gather_is_read_through_its_row_id() {
        let c = int_col(&[Some(10), None, Some(30)]);
        let t = c.take_padded(&[2, PAD, 1, 0]).slice(1, 3);
        assert_eq!(
            [t.value(0), t.value(1), t.value(2)],
            [Value::Null, Value::Null, Value::Int(10)]
        );
        assert!(!t.is_forced(), "boxing a cell gathered the column");
        let (source, ids) = t.unread_gather().expect("nobody has read it");
        assert_eq!(ids, [PAD, 1, 0], "the window's ids");
        assert!(matches!(source, ColumnView::Int([10, _, 30])));
        // Once some reader has gathered it there is nothing left to read through.
        assert_eq!(t.view(), ColumnView::Int(&[0, 0, 10]));
        assert!(t.unread_gather().is_none());
        assert_eq!(t.value(2), Value::Int(10));
    }

    #[test]
    fn a_gather_of_an_unread_gather_composes_its_ids_only_when_asked_for_the_column() {
        let strs: Vec<Value> = (0..40).map(|i| Value::Str(format!("s{i}"))).collect();
        let base = Column::from_values(DataType::Str, &strs).unwrap();
        let (inner, outer) = ([7, PAD, 3, 3, 39, 0, 12, 20], [5, PAD, 0, 4, 1, 2, 4]);
        // `outer` reads rows 2.. of `inner`: 3, 3, 39, 0, 12, 20.
        let want = ["s20", "", "s3", "s12", "s3", "s39", "s12"];
        let taken = || base.take_padded(&inner).slice(2, 6).take_padded(&outer);
        let composed = |c: &Column| match &c.rows {
            Rows::Deferred(node) => match &node.ids {
                RowIds::Through { composed, .. } => composed.get().is_some(),
                RowIds::Given(_) => panic!("taken from an unread gather"),
            },
            Rows::Buffer(_) => panic!("a take is deferred"),
        };
        let strings = |c: &Column| match c.view() {
            ColumnView::Str(v) => v.iter().map(str::to_string).collect::<Vec<_>>(),
            other => panic!("a string column read as {other:?}"),
        };

        // A window's cells, its size and its compacted copy: its own ids only.
        let t = taken();
        let window = t.slice(3, 3);
        assert_eq!([window.value(0), t.value(1)], [Value::Str("s12".into()), Value::Null]);
        assert_eq!(window.byte_size(), 3 + 2 + 3 + 3 * 4);
        assert_eq!(strings(&window.clone().compact()), want[3..6]);
        assert!(!composed(&t) && !t.is_forced(), "a window composed or gathered the column");

        // The whole column — sized, read per source row, or gathered — composes once.
        assert_eq!(t.byte_size(), want.iter().map(|s| s.len() as u64 + 4).sum::<u64>());
        assert!(composed(&t) && !t.is_forced());
        let (_, ids) = window.unread_gather().expect("nobody has read it");
        assert_eq!(ids, [12, 3, 39]);
        assert_eq!(strings(&t), want);
        assert_eq!(strings(&taken()), want, "gathered before anything composed");

        // Through a third gather the ids still reach the first source.
        let third = taken().slice(1, 5).take(&[4, 0, 2]);
        assert_eq!((third.value(0), third.value(1)), (Value::Str("s39".into()), Value::Null));
        assert_eq!(strings(&third), ["s39", "", "s12"]);
        assert!(!taken().slice(1, 5).take(&[4, 0, 2]).compact().is_null(0));
    }

    #[test]
    fn normalize_validity_drops_all_true() {
        let c = int_col(&[Some(1), None, Some(3)]);
        // Gathering around the null leaves an all-true bitmap behind.
        let f = c.take(&[0, 2]);
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
    fn concat_many_validity_matches_bitwise_at_every_alignment() {
        // Parts that start NULL-free, carry an all-true bitmap, or have NULLs,
        // cut at word boundaries and one off them.
        let cell = |i: usize| if i % 5 == 3 { None } else { Some(i as i64) };
        for first in [0, 1, 63, 64, 65, 130] {
            for second in [0, 1, 63, 64, 65] {
                let parts = [
                    int_col(&(0..first).map(|i| Some(i as i64)).collect::<Vec<_>>()),
                    int_col(&(0..70).map(cell).collect::<Vec<_>>()).slice(3, 1),
                    int_col(&(0..second).map(cell).collect::<Vec<_>>()),
                    int_col(&(0..64).map(cell).collect::<Vec<_>>()),
                ];
                let c = Column::concat_many(&parts).unwrap();
                let bits: Vec<bool> =
                    parts.iter().flat_map(|p| (0..p.len()).map(|i| !p.is_null(i))).collect();
                assert_eq!(
                    c.validity(),
                    Some(&Bitmap::from_bools(&bits)),
                    "{first} + 1 + {second}"
                );
            }
        }
        // Presence is canonical: all-true bitmaps on every part leave none.
        let whole = int_col(&(0..70).map(cell).collect::<Vec<_>>());
        let valid = [whole.slice(0, 3), whole.slice(4, 4), whole.slice(64, 4)];
        assert!(valid.iter().all(|p| p.validity().is_some()));
        assert!(Column::concat_many(&valid).unwrap().validity().is_none());
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
        assert!(matches!(c.view(), ColumnView::Str(v) if &v[2] == "emea"));
        assert!(c.byte_size() > 0);
    }

    #[test]
    fn a_mismatched_read_is_an_error() {
        let ints = int_col(&[Some(1)]);
        let floats = Column::from_values(DataType::Float, &[Value::Float(0.5)]).unwrap();
        let strs = Column::from_values(DataType::Str, &[Value::Str("x".into())]).unwrap();
        for (parts, msg) in [
            ([ints.clone(), floats], "cannot concat INT with FLOAT"),
            ([strs, ints], "cannot concat STRING with INT"),
        ] {
            let err = Column::concat_many(&parts).unwrap_err();
            assert_eq!((err.kind(), err.to_string().contains(msg)), ("execution", true), "{err}");
        }
    }

    #[test]
    fn clone_shares_the_buffer() {
        let c = int_col(&(0..1000).map(Some).collect::<Vec<_>>());
        let d = c.clone();
        assert!(c.ptr_eq(&d));
        assert_eq!(d.view(), c.view());
    }

    #[test]
    fn byte_size_scales_with_rows() {
        let small = int_col(&[Some(1)]);
        let big = int_col(&(0..100).map(Some).collect::<Vec<_>>());
        assert!(big.byte_size() > small.byte_size());
    }
}
