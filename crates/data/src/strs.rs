//! String rows in one buffer: the text of every row laid end to end and the
//! offsets that cut it (the Arrow LargeUtf8 layout).
//!
//! A column of `n` strings is two allocations — `n + 1` offsets and one
//! `String` — not `n` heap strings: building one appends, copying one is two
//! `memcpy`s, dropping one frees two blocks, and a window of it is a window of
//! its offsets. Offsets are `usize`, so no append or gather can overflow them
//! and nothing here returns an error. Every offset falls on a char boundary,
//! because the text only ever grows by whole `&str`s.
//!
//! **The dictionary.** A buffer's distinct strings are found once, by the
//! first reader that wants them ([`StrColumn::dictionary`]): each row's entry
//! id, in first-seen order, and each entry's first row. It is kept beside the
//! offsets and the text, so every window, clone and unread gather of the
//! buffer shares it — a comparison against a constant decides once per entry
//! and the key coder codes once per entry, for every job that reads the
//! buffer. It is derived data: equality, the codec and the content digest
//! never see it, and an append forgets it.

use crate::column::PAD;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::{Arc, OnceLock};

/// The rows of a string column: row `i` is `text[offsets[i]..offsets[i + 1]]`.
/// `offsets` starts at 0, never decreases and has one entry more than there
/// are rows.
#[derive(Clone)]
pub struct StrColumn {
    offsets: Vec<usize>,
    text: String,
    /// Built on first use; a clone shares it, a mutator drops it.
    dictionary: OnceLock<Arc<Dictionary>>,
}

// Morsels on several workers read one buffer, and its dictionary, at once.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<StrColumn>();
};

/// The distinct strings of one buffer, numbered in order of first
/// appearance: `ids[row]` is row `row`'s entry and `firsts[entry]` the first
/// row that holds it, so two rows share an entry iff their bytes are equal.
/// Entry ids are 32-bit, like every code (`codes`).
#[derive(Debug)]
pub struct Dictionary {
    pub(crate) ids: Vec<u32>,
    pub(crate) firsts: Vec<usize>,
}

impl Dictionary {
    /// Every buffer row's entry.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The first buffer row of entry `entry`: where its text is read.
    #[inline]
    pub fn first(&self, entry: u32) -> usize {
        self.firsts[entry as usize]
    }

    /// Distinct strings.
    pub fn len(&self) -> usize {
        self.firsts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.firsts.is_empty()
    }
}

/// Row by row; the dictionary is derived from the rows and is not compared.
impl PartialEq for StrColumn {
    fn eq(&self, other: &StrColumn) -> bool {
        self.offsets == other.offsets && self.text == other.text
    }
}

impl Eq for StrColumn {}

impl Default for StrColumn {
    fn default() -> StrColumn {
        StrColumn::new()
    }
}

impl StrColumn {
    pub fn new() -> StrColumn {
        StrColumn::with_capacity(0, 0)
    }

    /// Room for `rows` rows of `bytes` bytes of text in all.
    pub fn with_capacity(rows: usize, bytes: usize) -> StrColumn {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrColumn::of(offsets, String::with_capacity(bytes))
    }

    fn of(offsets: Vec<usize>, text: String) -> StrColumn {
        StrColumn { offsets, text, dictionary: OnceLock::new() }
    }

    /// `s` at each of `n` rows.
    pub fn repeat(s: &str, n: usize) -> StrColumn {
        let text = s.repeat(n);
        StrColumn::of((0..=n).map(|i| i * s.len()).collect(), text)
    }

    /// Rows from raw parts, as a decoder reads them: `text` is checked as
    /// UTF-8 once, whole, and `offsets` must start at 0, never decrease, end
    /// at the text's length and fall on char boundaries. `None` otherwise —
    /// so two rows `C3` and `A9`, which only laid end to end spell `"é"`,
    /// are refused.
    pub fn from_utf8_parts(offsets: Vec<usize>, text: Vec<u8>) -> Option<StrColumn> {
        let text = String::from_utf8(text).ok()?;
        let ends = offsets.first() == Some(&0) && offsets.last() == Some(&text.len());
        let cuts = offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.iter().all(|&o| text.is_char_boundary(o));
        (ends && cuts).then(|| StrColumn::of(offsets, text))
    }

    /// The rows of `source` at `ids`, a [`PAD`] reading as `""`: one pass
    /// sums the lengths, the second copies into a buffer of exactly that
    /// size.
    pub fn gather(source: StrView<'_>, ids: &[usize]) -> StrColumn {
        let len = |&i: &usize| if i == PAD { 0 } else { source.len_of(i) };
        let mut out = StrColumn::with_capacity(ids.len(), ids.iter().map(len).sum());
        for &i in ids {
            out.append(if i == PAD { "" } else { source.get(i) });
        }
        out
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make room for `rows` more rows of `bytes` more bytes of text.
    pub fn reserve(&mut self, rows: usize, bytes: usize) {
        self.offsets.reserve(rows);
        self.text.reserve(bytes);
    }

    pub fn push(&mut self, s: &str) {
        self.dictionary.take();
        self.append(s);
    }

    /// [`StrColumn::push`] into a buffer being built, which has no
    /// dictionary yet.
    #[inline]
    fn append(&mut self, s: &str) {
        self.text.push_str(s);
        self.offsets.push(self.text.len());
    }

    /// Append `v`'s text as one row, formatted straight into the buffer.
    pub fn push_display(&mut self, v: impl fmt::Display) {
        use fmt::Write;
        self.dictionary.take();
        // Writing into a `String` cannot fail.
        let _ = write!(self.text, "{v}");
        self.offsets.push(self.text.len());
    }

    /// Append every row of `v`: one copy of its text, its offsets rebased.
    pub fn extend_from_view(&mut self, v: StrView<'_>) {
        self.dictionary.take();
        let (start, end) = (v.offsets[0], v.offsets[v.len()]);
        let shift = self.text.len();
        self.text.push_str(&v.text[start..end]);
        self.offsets.extend(v.offsets[1..].iter().map(|&o| o - start + shift));
    }

    pub fn get(&self, i: usize) -> &str {
        &self.text[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Every row.
    pub fn view(&self) -> StrView<'_> {
        StrView { offsets: &self.offsets, text: &self.text }
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.view().iter()
    }

    /// The buffer's dictionary, built by the first caller (one hash and one
    /// probe a row) and read by every later one.
    pub fn dictionary(&self) -> &Dictionary {
        self.dictionary.get_or_init(|| Arc::new(crate::codes::dictionary(self.view())))
    }

    /// Test probe: the dictionary if some reader has built it.
    #[doc(hidden)]
    pub fn built_dictionary(&self) -> Option<&Arc<Dictionary>> {
        self.dictionary.get()
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> StrColumn {
        let iter = iter.into_iter();
        let mut out = StrColumn::with_capacity(iter.size_hint().0, 0);
        iter.for_each(|s| out.append(s.as_ref()));
        // The text grew by doubling; a built column keeps only its bytes.
        out.text.shrink_to_fit();
        out
    }
}

impl Index<usize> for StrColumn {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// Borrowed rows of a string column: a window of its offsets over its whole
/// text. Row `i` is `text[offsets[i]..offsets[i + 1]]`; `offsets` is never
/// empty.
#[derive(Clone, Copy)]
pub struct StrView<'a> {
    offsets: &'a [usize],
    text: &'a str,
}

impl<'a> StrView<'a> {
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> &'a str {
        &self.text[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Row `i`'s bytes, cut by the offsets alone: no `&str` is built, so
    /// neither end is checked for a char boundary. Bytes order as their
    /// `str` does.
    #[inline]
    pub fn bytes_of(&self, i: usize) -> &'a [u8] {
        &self.text.as_bytes()[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Row `i`'s length in bytes, read off the offsets.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Bytes of text in all the rows.
    pub fn text_len(&self) -> usize {
        self.offsets[self.len()] - self.offsets[0]
    }

    /// Rows `w` as a view of their own.
    pub fn slice(&self, w: Range<usize>) -> StrView<'a> {
        StrView { offsets: &self.offsets[w.start..=w.end], text: self.text }
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let text = self.text;
        self.offsets.windows(2).map(move |w| &text[w[0]..w[1]])
    }

    /// These rows in a buffer of their own: one copy of their text.
    pub fn to_column(&self) -> StrColumn {
        let mut out = StrColumn::with_capacity(self.len(), self.text_len());
        out.extend_from_view(*self);
        out
    }
}

impl Index<usize> for StrView<'_> {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// Row by row, wherever each view's text sits.
impl PartialEq for StrView<'_> {
    fn eq(&self, other: &StrView<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for StrView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::chunk::chunk_ranges;
    use crate::column::{Column, ColumnData, ColumnView, StrRows};
    use crate::value::Value;
    use cv_common::DetRng;

    /// Empty, ASCII and multibyte cells.
    const WORDS: [&str; 7] = ["", "a", "é", "€", "asia", "nordics", "€é-x"];

    /// What a string column holds, as plain strings: the buffer text of every
    /// row (placeholders under NULL included) and its validity.
    #[derive(Clone, Debug)]
    struct Model {
        text: Vec<String>,
        valid: Vec<bool>,
    }

    impl Model {
        fn random(rng: &mut DetRng, rows: usize) -> Model {
            let null_rate = *rng.choose(&[0.0, 0.1, 0.9]);
            let valid: Vec<bool> = (0..rows).map(|_| !rng.chance(null_rate)).collect();
            let text = valid
                .iter()
                // A NULL slot holds the builder's "" or anything else.
                .map(|&ok| match ok || rng.chance(0.5) {
                    true => rng.choose(&WORDS).repeat(rng.range_usize(0, 3)),
                    false => String::new(),
                })
                .collect();
            Model { text, valid }
        }

        fn column(&self) -> Column {
            let valid = self.valid.contains(&false).then(|| Bitmap::from_bools(&self.valid));
            Column::new(ColumnData::Str(self.text.iter().collect()), valid)
        }

        fn window(&self, offset: usize, len: usize) -> Model {
            let w = offset..offset + len;
            Model { text: self.text[w.clone()].to_vec(), valid: self.valid[w].to_vec() }
        }

        /// A pad is `""` and NULL.
        fn gather(&self, ids: &[usize]) -> Model {
            let pick = |&i: &usize| match i {
                PAD => (String::new(), false),
                i => (self.text[i].clone(), self.valid[i]),
            };
            let (text, valid) = ids.iter().map(pick).unzip();
            Model { text, valid }
        }
    }

    /// Every read of `col` against the model, none of them gathering an
    /// unread column until the last ones (`strs`, `compact`).
    fn check(col: &Column, model: &Model, what: &str) {
        let rows = model.text.len();
        assert_eq!(col.len(), rows, "{what}: rows");
        for i in 0..rows {
            let want = match model.valid[i] {
                true => Value::Str(model.text[i].clone()),
                false => Value::Null,
            };
            assert_eq!(col.value(i), want, "{what}: value({i})");
        }
        let bitmap = col.validity().map_or(0, |v| v.len() as u64 / 8);
        let text: usize = model.text.iter().map(String::len).sum();
        assert_eq!(col.byte_size(), text as u64 + 4 * rows as u64 + bitmap, "{what}: byte size");
        if let Some((ColumnView::Str(source), ids)) = col.unread_gather() {
            for (k, &id) in ids.iter().enumerate() {
                let cell = if id == PAD { "" } else { source.get(id) };
                assert_eq!(cell, model.text[k], "{what}: unread row {k}");
            }
        }
        let compact = col.clone().compact();
        assert!(compact.is_compact(), "{what}: compact");
        for c in [col, &compact] {
            let ColumnView::Str(v) = c.view() else { panic!("{what}: not a string column") };
            assert_eq!(v.len(), rows, "{what}: view rows");
            assert!(v.iter().eq(model.text.iter().map(String::as_str)), "{what}: view");
            assert_eq!(v.text_len(), text, "{what}: text bytes");
            for (i, s) in model.text.iter().enumerate() {
                assert_eq!((&v[i], v.len_of(i)), (s.as_str(), s.len()), "{what}: row {i}");
                assert_eq!(v.bytes_of(i), s.as_bytes(), "{what}: bytes of row {i}");
            }
            let valid: Vec<bool> = (0..rows).map(|i| !c.is_null(i)).collect();
            assert_eq!(valid, model.valid, "{what}: validity");
        }
    }

    /// Random row ids into `rows` rows, with pads when `padded`.
    fn ids(rng: &mut DetRng, rows: usize, padded: bool) -> Vec<usize> {
        // Without pads there is nothing to take from no rows.
        let n = if rows == 0 && !padded { 0 } else { rng.range_usize(0, 2 * rows + 2) };
        (0..n)
            .map(|_| match rows == 0 || (padded && rng.chance(0.15)) {
                true => PAD,
                false => rng.range_usize(0, rows),
            })
            .collect()
    }

    /// `StrColumn` / `StrView` under every column operation, held to a
    /// `Vec<String>` model: windows, deferred gathers (padded, of an unread
    /// gather, of a read one), compaction, reassembly from chunks.
    #[test]
    fn a_string_column_reads_as_its_vec_of_strings_model() {
        let mut rng = DetRng::seed(0x5717);
        for round in 0..48 {
            let rows = *rng.choose(&[0, 1, 2, 7, 64, 333, 700, 2100]);
            let mut model = Model::random(&mut rng, rows);
            let mut col = model.column();
            for step in 0..6 {
                let what = format!("round {round}, step {step}");
                check(&col, &model, &what);
                let rows = model.text.len();
                match rng.range_usize(0, 5) {
                    0 => {
                        let offset = rng.range_usize(0, rows + 1);
                        let len = rng.range_usize(0, rows - offset + 1);
                        (col, model) = (col.slice(offset, len), model.window(offset, len));
                    }
                    1 | 2 => {
                        let padded = rng.chance(0.5);
                        let ids = ids(&mut rng, rows, padded);
                        // Half the time the input is read first: a gather of a
                        // gathered column, not of an unread one.
                        if rng.chance(0.5) {
                            col.view();
                        }
                        col = if padded { col.take_padded(&ids) } else { col.take(&ids) };
                        model = model.gather(&ids);
                    }
                    3 => col = col.compact(),
                    _ => {
                        let chunk = *rng.choose(&[1, 333, 2048, usize::MAX]);
                        let parts: Vec<Column> = chunk_ranges(rows, chunk)
                            .into_iter()
                            .map(|(offset, len)| col.slice(offset, len))
                            .collect();
                        col = Column::concat_many(&parts).unwrap();
                        assert!(parts.len() == 1 || col.is_compact(), "{what}: concat");
                    }
                }
            }
            check(&col, &model, &format!("round {round}, last"));
        }
    }

    #[test]
    fn a_built_column_and_its_views_agree() {
        let words: StrColumn = ["", "é", "asia", "", "€uro"].into_iter().collect();
        assert_eq!((words.len(), words.view().text_len()), (5, 2 + 4 + 6));
        assert_eq!(format!("{words:?}"), r#"["", "é", "asia", "", "€uro"]"#);
        let middle = words.view().slice(1..4);
        assert_eq!((middle.get(1), &middle[0], middle.len_of(2)), ("asia", "é", 0));
        assert_eq!(middle.to_column().view(), middle);
        assert_eq!(
            StrColumn::repeat("ab", 3).view(),
            ["ab"; 3].into_iter().collect::<StrColumn>().view()
        );
        let mut built = StrColumn::new();
        built.push_display(-2.5);
        built.extend_from_view(middle);
        assert!(built.iter().eq(["-2.5", "é", "asia", ""]));
        let parts = |offsets: &[usize], text: &[u8]| {
            StrColumn::from_utf8_parts(offsets.to_vec(), text.to_vec())
        };
        assert_eq!(
            parts(&[0, 0, 2, 6], "éasia".as_bytes()).unwrap(),
            words.view().slice(0..3).to_column()
        );
        assert_eq!(parts(&[0], b"").unwrap(), StrColumn::new());
        for (offsets, text) in [
            (&[0, 1, 2][..], &[0xC3, 0xA9][..]), // "é" cut inside its char
            (&[0, 1], &[0xC3][..]),              // not UTF-8
            (&[1, 2], b"ab"),                    // does not start at 0
            (&[0, 2, 1, 2], b"ab"),              // decreases
            (&[0, 1], b"ab"),                    // stops short of the text
            (&[0, 3], b"ab"),                    // runs past it
            (&[], b""),                          // no offsets at all
        ] {
            assert_eq!(parts(offsets, text), None, "{offsets:?} over {text:?}");
        }
        let gathered = StrColumn::gather(words.view(), &[4, PAD, 1]);
        assert!(gathered.iter().eq(["€uro", "", "é"]));
        assert_eq!(gathered.view().text_len(), 6 + 2);
    }

    /// One dictionary per buffer: a window, an unread gather (padded, or of
    /// another unread gather) and a clone read the one their buffer built,
    /// a read gather is a buffer of its own, and an append drops it.
    #[test]
    fn windows_gathers_and_clones_share_the_dictionary_and_a_push_drops_it() {
        let base =
            Column::new(ColumnData::Str(["b", "", "a", "b", "é"].into_iter().collect()), None);
        let buffer = |c: &Column| c.str_rows().expect("a string column").0 as *const StrColumn;
        let built = |c: &Column| c.str_rows().and_then(|(b, _)| b.built_dictionary().cloned());
        let window = base.slice(1, 3);
        let gathers =
            [base.take(&[4, 0]), base.take_padded(&[PAD, 3]), base.take(&[3, 2, 0]).take(&[2, 1])];
        assert!(built(&base).is_none(), "built before anyone read it");
        let (_, rows) = window.str_rows().unwrap();
        assert!(matches!(rows, StrRows::Window(1)));
        let entries = window.str_rows().unwrap().0.dictionary();
        assert_eq!((entries.ids(), entries.len()), (&[0, 1, 2, 0, 3][..], 4));
        let shared = built(&base).expect("the window built its buffer's");
        for g in &gathers {
            assert!(matches!(g.str_rows().unwrap().1, StrRows::Gather { .. }));
            assert_eq!(buffer(g), buffer(&base), "a gather reads its source's buffer");
            assert!(Arc::ptr_eq(&built(g).unwrap(), &shared));
            assert!(!g.is_forced(), "finding the buffer gathered the column");
        }
        // Once read, a gather is a buffer of its own, with a dictionary of its own.
        let read = &gathers[0];
        read.view();
        assert!(buffer(read) != buffer(&base) && built(read).is_none());

        let mut clone = base.str_rows().unwrap().0.clone();
        assert!(Arc::ptr_eq(clone.built_dictionary().unwrap(), &shared), "a clone shares it");
        clone.push("b");
        assert!(clone.built_dictionary().is_none(), "a push kept a stale dictionary");
        assert_eq!(clone.dictionary().ids(), [0, 1, 2, 0, 3, 0]);
        assert!(built(&base).is_some(), "the push dropped the source's");
        let coded = base.str_rows().unwrap().0;
        let ColumnView::Str(rows) = base.view() else { panic!("not a string column") };
        assert_eq!(*coded, rows.to_column(), "equality ignores the dictionary");
    }
}
