//! Zero-dependency little-endian codec for tables and store metadata.
//!
//! Everything durable (pages, WAL records, checkpoints) is encoded through
//! these two cursors. Decoding is *total*: every read is bounds-checked and
//! returns `Err` on truncation or a bad tag, because the bytes may come from
//! a torn write — the read path maps decode failures to corruption, never
//! panics.

use cv_data::bitmap::Bitmap;
use cv_data::column::{Column, ColumnData, ColumnView};
use cv_data::schema::{Field, Schema};
use cv_data::strs::StrColumn;
use cv_data::table::Table;
use cv_data::value::DataType;

/// Decode failure: the bytes do not parse as what was expected. Carries a
/// static reason for diagnostics; callers usually map it to "corrupt".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are stored by bit pattern, so NaN payloads and signed zeros
    /// round-trip exactly — required for byte-identical digests.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError("truncated"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes as an array: every fixed-width read goes through
    /// this one bounds check, so none of them can panic.
    fn take_array<const N: usize>(&mut self) -> CodecResult<[u8; N]> {
        let head = self.buf[self.pos..].first_chunk::<N>().ok_or(CodecError("truncated"))?;
        self.pos += N;
        Ok(*head)
    }

    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    pub fn get_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn get_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn get_u128(&mut self) -> CodecResult<u128> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }

    pub fn get_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_str(&mut self) -> CodecResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError("invalid utf-8"))
    }

    /// Append the next `n` length-prefixed strings to a string column's raw
    /// parts: their bytes to `text`, the offset where each ends to
    /// `offsets`. One walk over the prefixes sizes `text`, a second copies
    /// the bytes. Nothing is checked as UTF-8 here; the caller checks the
    /// whole text once ([`StrColumn::from_utf8_parts`]).
    fn get_str_run(
        &mut self,
        n: usize,
        offsets: &mut Vec<usize>,
        text: &mut Vec<u8>,
    ) -> CodecResult<()> {
        let start = self.pos;
        let mut end = text.len();
        for _ in 0..n {
            let len = self.get_u32()? as usize;
            self.take(len)?;
            end += len;
            offsets.push(end);
        }
        text.reserve(end - text.len());
        let mut run = Dec::new(&self.buf[start..self.pos]);
        while !run.is_done() {
            let len = run.get_u32()? as usize;
            text.extend_from_slice(run.take(len)?);
        }
        Ok(())
    }

    pub fn get_bytes(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        self.take(n)
    }

    /// The next `n` fixed-width values as `W`-byte arrays: one bounds check
    /// for the whole run.
    pub fn get_run<const W: usize>(
        &mut self,
        n: usize,
    ) -> CodecResult<impl Iterator<Item = [u8; W]> + 'a> {
        let run = self.take(n.checked_mul(W).ok_or(CodecError("truncated"))?)?;
        Ok(run.as_chunks::<W>().0.iter().copied())
    }
}

fn dtype_from_ordinal(ord: u8) -> CodecResult<DataType> {
    Ok(match ord {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Date,
        _ => return Err(CodecError("unknown dtype ordinal")),
    })
}

fn pack_bools(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Serialize a table (schema + columns + validity) to bytes, chunk-major
/// at the engine's default chunk size.
///
/// Layout: schema header, total row count, chunk count, then one section
/// per chunk holding its row count followed by every column's validity
/// flag + packed bits and typed values for just those rows. Chunk-major
/// sections line up with the engine's execution chunks, so the page-chain
/// writer streams a view out in the same granularity the producer emitted
/// it and a future partial read needs no column-level seeking.
pub fn encode_table(t: &Table) -> Vec<u8> {
    encode_table_chunked(t, cv_data::chunk::DEFAULT_CHUNK_SIZE)
}

/// [`encode_table`] with an explicit chunk size (tests exercise degenerate
/// sizes; the decoded table is identical for every value).
pub fn encode_table_chunked(t: &Table, chunk_size: usize) -> Vec<u8> {
    let mut e = Enc::new();
    let schema = t.schema();
    e.put_u32(schema.len() as u32);
    for f in schema.fields() {
        e.put_str(&f.name);
        e.put_u8(f.dtype.ordinal());
        e.put_u8(f.nullable as u8);
    }
    e.put_u64(t.num_rows() as u64);
    let ranges = cv_data::chunk::chunk_ranges(t.num_rows(), chunk_size.max(1));
    e.put_u32(ranges.len() as u32);
    for &(off, len) in &ranges {
        e.put_u64(len as u64);
        for col in t.columns() {
            match col.validity() {
                Some(bits) => {
                    e.put_u8(1);
                    e.put_bytes(&bits.slice(off, len).to_le_bytes());
                }
                None => e.put_u8(0),
            }
            match col.view() {
                ColumnView::Bool(vs) => e.put_bytes(&pack_bools(&vs[off..off + len])),
                ColumnView::Int(vs) => vs[off..off + len].iter().for_each(|&v| e.put_i64(v)),
                ColumnView::Float(vs) => vs[off..off + len].iter().for_each(|&v| e.put_f64(v)),
                ColumnView::Str(vs) => vs.slice(off..off + len).iter().for_each(|v| e.put_str(v)),
                ColumnView::Date(vs) => vs[off..off + len].iter().for_each(|&v| e.put_i32(v)),
            }
        }
    }
    e.into_bytes()
}

/// Inverse of [`encode_table`]: concatenates the chunk sections back into
/// whole columns, each section's fixed-width run converted in one pass and
/// its validity bytes appended to the column's bitmap a word at a time. A
/// string column's bytes are appended to one text buffer, chunk after
/// chunk, and the buffer is checked as UTF-8 once, at the end, with every
/// string's offset on a char boundary. A column's validity presence is
/// preserved exactly — if any chunk carries a bitmap the reassembled column
/// does too (flag-0 chunks contribute all-valid runs), so the round trip is
/// byte-faithful even for non-canonical all-true bitmaps.
///
/// Total over arbitrary bytes: every run is bounds-checked before it is
/// read, and no buffer is sized from a count the remaining bytes could not
/// hold.
pub fn decode_table(buf: &[u8]) -> CodecResult<Table> {
    let mut d = Dec::new(buf);
    let n_fields = d.get_u32()? as usize;
    // A field is at least its name's length prefix and two flag bytes.
    let mut fields = Vec::with_capacity(n_fields.min(d.remaining() / 6));
    for _ in 0..n_fields {
        let name = d.get_str()?;
        let dtype = dtype_from_ordinal(d.get_u8()?)?;
        let nullable = match d.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError("bad nullable flag")),
        };
        fields.push(if nullable { Field::new(name, dtype) } else { Field::not_null(name, dtype) });
    }
    let n_rows = d.get_u64()? as usize;
    let n_chunks = d.get_u32()? as usize;
    if n_chunks == 0 {
        return Err(CodecError("zero chunks"));
    }
    let rest = d.remaining();
    let mut validity: Vec<Option<Bitmap>> = vec![None; n_fields];
    let mut datas: Vec<ColumnData> = fields
        .iter()
        .map(|f| match f.dtype {
            DataType::Bool => {
                ColumnData::Bool(Vec::with_capacity(n_rows.min(rest.saturating_mul(8))))
            }
            DataType::Int => ColumnData::Int(Vec::with_capacity(n_rows.min(rest / 8))),
            DataType::Float => ColumnData::Float(Vec::with_capacity(n_rows.min(rest / 8))),
            // Filled from `strs` once every chunk is in.
            DataType::Str => ColumnData::Str(StrColumn::new()),
            DataType::Date => ColumnData::Date(Vec::with_capacity(n_rows.min(rest / 4))),
        })
        .collect();
    // A string column's raw parts, `(offsets, text)`: empty for other types.
    let mut strs: Vec<(Vec<usize>, Vec<u8>)> = fields
        .iter()
        .map(|f| match f.dtype {
            DataType::Str => {
                let mut offsets = Vec::with_capacity(n_rows.min(rest / 4) + 1);
                offsets.push(0);
                (offsets, Vec::new())
            }
            _ => (Vec::new(), Vec::new()),
        })
        .collect();
    let mut decoded_rows = 0usize;
    for _ in 0..n_chunks {
        let rows = d.get_u64()? as usize;
        let before = decoded_rows;
        decoded_rows = decoded_rows.checked_add(rows).ok_or(CodecError("chunk rows overflow"))?;
        if decoded_rows > n_rows {
            return Err(CodecError("chunk rows exceed table rows"));
        }
        let bitmap_bytes = rows.div_ceil(8);
        // Every column spends at least a bit a row, so this bounds `rows`
        // (and with it everything allocated below) by the bytes present.
        if n_fields > 0 && bitmap_bytes > d.remaining() {
            return Err(CodecError("truncated"));
        }
        for i in 0..n_fields {
            match d.get_u8()? {
                0 => {
                    if let Some(bits) = &mut validity[i] {
                        bits.extend_set(rows);
                    }
                }
                1 => validity[i]
                    .get_or_insert_with(|| Bitmap::all_set(before))
                    .extend_from_le_bytes(d.get_bytes(bitmap_bytes)?, rows),
                _ => return Err(CodecError("bad validity flag")),
            }
            match &mut datas[i] {
                ColumnData::Bool(vs) => {
                    let bits = d.get_bytes(bitmap_bytes)?;
                    vs.extend((0..rows).map(|r| bits[r / 8] & (1 << (r % 8)) != 0));
                }
                ColumnData::Int(vs) => vs.extend(d.get_run::<8>(rows)?.map(i64::from_le_bytes)),
                ColumnData::Float(vs) => {
                    vs.extend(d.get_run::<8>(rows)?.map(|b| f64::from_bits(u64::from_le_bytes(b))))
                }
                ColumnData::Str(_) => {
                    let (offsets, text) = &mut strs[i];
                    d.get_str_run(rows, offsets, text)?;
                }
                ColumnData::Date(vs) => vs.extend(d.get_run::<4>(rows)?.map(i32::from_le_bytes)),
            }
        }
    }
    if decoded_rows != n_rows {
        return Err(CodecError("chunk rows mismatch"));
    }
    if !d.is_done() {
        return Err(CodecError("trailing bytes after table"));
    }
    let mut columns = Vec::with_capacity(n_fields);
    for ((data, v), (offsets, text)) in datas.into_iter().zip(validity).zip(strs) {
        let data = match data {
            ColumnData::Str(_) => ColumnData::Str(
                StrColumn::from_utf8_parts(offsets, text).ok_or(CodecError("invalid utf-8"))?,
            ),
            data => data,
        };
        columns.push(Column::new(data, v));
    }
    let schema = Schema::new_unchecked(fields).into_ref();
    Table::new(schema, columns).map_err(|_| CodecError("table validation failed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_common::DetRng;
    use cv_data::content_digest;
    use cv_data::value::Value;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
            Field::new("active", DataType::Bool),
            Field::new("day", DataType::Date),
        ])
        .unwrap()
        .into_ref();
        Table::from_rows(
            schema,
            &[
                vec![
                    Value::Int(1),
                    Value::Str("ada".into()),
                    Value::Float(1.5),
                    Value::Bool(true),
                    Value::Date(100),
                ],
                vec![
                    Value::Int(-2),
                    Value::Null,
                    Value::Float(f64::NEG_INFINITY),
                    Value::Null,
                    Value::Date(-5),
                ],
                vec![
                    Value::Int(i64::MAX),
                    Value::Str(String::new()),
                    Value::Null,
                    Value::Bool(false),
                    Value::Null,
                ],
            ],
        )
        .unwrap()
    }

    fn unpack_bools(bytes: &[u8], n: usize) -> Vec<bool> {
        (0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect()
    }

    /// The decoder as it was before the bulk one: a bounds-checked read and a
    /// push per value, validity through `Vec<bool>`. Kept as the reference
    /// for well-formed blobs only — it sizes its buffers from the header's
    /// row count, so a damaged count aborts it.
    fn decode_table_per_value(buf: &[u8]) -> CodecResult<Table> {
        let mut d = Dec::new(buf);
        let n_fields = d.get_u32()? as usize;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let name = d.get_str()?;
            let dtype = dtype_from_ordinal(d.get_u8()?)?;
            let nullable = match d.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError("bad nullable flag")),
            };
            fields.push(if nullable {
                Field::new(name, dtype)
            } else {
                Field::not_null(name, dtype)
            });
        }
        let n_rows = d.get_u64()? as usize;
        let n_chunks = d.get_u32()? as usize;
        if n_chunks == 0 {
            return Err(CodecError("zero chunks"));
        }
        let mut vbits: Vec<Vec<bool>> = vec![Vec::with_capacity(n_rows); n_fields];
        let mut any_validity = vec![false; n_fields];
        let mut datas: Vec<ColumnData> = fields
            .iter()
            .map(|f| match f.dtype {
                DataType::Bool => ColumnData::Bool(Vec::with_capacity(n_rows)),
                DataType::Int => ColumnData::Int(Vec::with_capacity(n_rows)),
                DataType::Float => ColumnData::Float(Vec::with_capacity(n_rows)),
                DataType::Str => ColumnData::Str(StrColumn::with_capacity(n_rows, 0)),
                DataType::Date => ColumnData::Date(Vec::with_capacity(n_rows)),
            })
            .collect();
        let mut decoded_rows = 0usize;
        for _ in 0..n_chunks {
            let rows = d.get_u64()? as usize;
            decoded_rows =
                decoded_rows.checked_add(rows).ok_or(CodecError("chunk rows overflow"))?;
            if decoded_rows > n_rows {
                return Err(CodecError("chunk rows exceed table rows"));
            }
            let bitmap_bytes = rows.div_ceil(8);
            for i in 0..n_fields {
                match d.get_u8()? {
                    0 => vbits[i].extend(std::iter::repeat_n(true, rows)),
                    1 => {
                        any_validity[i] = true;
                        vbits[i].extend(unpack_bools(d.get_bytes(bitmap_bytes)?, rows));
                    }
                    _ => return Err(CodecError("bad validity flag")),
                }
                match &mut datas[i] {
                    ColumnData::Bool(vs) => {
                        vs.extend(unpack_bools(d.get_bytes(bitmap_bytes)?, rows))
                    }
                    ColumnData::Int(vs) => {
                        for _ in 0..rows {
                            vs.push(d.get_u64()? as i64);
                        }
                    }
                    ColumnData::Float(vs) => {
                        for _ in 0..rows {
                            vs.push(d.get_f64()?);
                        }
                    }
                    ColumnData::Str(vs) => {
                        for _ in 0..rows {
                            vs.push(&d.get_str()?);
                        }
                    }
                    ColumnData::Date(vs) => {
                        for _ in 0..rows {
                            vs.push(d.get_u32()? as i32);
                        }
                    }
                }
            }
        }
        if decoded_rows != n_rows {
            return Err(CodecError("chunk rows mismatch"));
        }
        if !d.is_done() {
            return Err(CodecError("trailing bytes after table"));
        }
        let columns: Vec<Column> = datas
            .into_iter()
            .zip(vbits)
            .zip(any_validity)
            .map(|((data, bits), any)| {
                Column::new(data, if any { Some(Bitmap::from_bools(&bits)) } else { None })
            })
            .collect();
        let schema = Schema::new_unchecked(fields).into_ref();
        Table::new(schema, columns).map_err(|_| CodecError("table validation failed"))
    }

    /// Every column type with NULLs, NaN payloads, both zero signs and empty
    /// strings; the last column carries an all-true bitmap so validity
    /// *presence* round-trips, not just null positions.
    fn random_table(rng: &mut DetRng, rows: usize) -> Table {
        let types = [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
            DataType::Float,
        ];
        let fields = types.iter().enumerate().map(|(i, &t)| Field::new(format!("c{i}"), t));
        let schema = Schema::new(fields.collect()).unwrap().into_ref();
        let null_rate = *rng.choose(&[0.0, 0.2, 1.0]);
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                let mut row = vec![
                    Value::Bool(rng.chance(0.5)),
                    Value::Int(rng.next_u64() as i64),
                    Value::Float(f64::from_bits(rng.next_u64())),
                    Value::Str("xyz€".repeat(rng.range_usize(0, 4))),
                    Value::Date(rng.next_u64() as i32),
                ];
                row.iter_mut().for_each(|v| {
                    if rng.chance(null_rate) {
                        *v = Value::Null;
                    }
                });
                row.push(Value::Float(*rng.choose(&[0.0, -0.0, f64::NAN, 1.5])));
                row
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &data).unwrap();
        let mut columns = t.columns().to_vec();
        let last = columns.pop().unwrap();
        columns.push(Column::new(last.data().clone(), Some(Bitmap::all_set(rows))));
        Table::new(schema, columns).unwrap()
    }

    /// Byte-for-byte: schema, validity presence and bits, every buffer value
    /// (floats by bit pattern, placeholders under NULL included).
    fn assert_identical(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.schema().fields(), b.schema().fields(), "schema, {what}");
        assert_eq!(a.num_rows(), b.num_rows(), "rows, {what}");
        for (ca, cb) in a.columns().iter().zip(b.columns()) {
            assert_eq!(ca.validity(), cb.validity(), "validity, {what}");
            match (ca.view(), cb.view()) {
                (ColumnView::Float(x), ColumnView::Float(y)) => assert_eq!(
                    x.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    y.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "float bits, {what}"
                ),
                (x, y) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "values, {what}"),
            }
        }
    }

    #[test]
    fn bulk_decode_equals_the_per_value_decoder() {
        let mut rng = DetRng::seed(0xc0dec);
        for round in 0..120 {
            let rows = [0, 1, 7, 8, 63, 64, 65, 333, 700][round % 9];
            let t = random_table(&mut rng, rows);
            let whole = decode_table(&encode_table_chunked(&t, usize::MAX)).unwrap();
            assert_identical(&whole, &t, &format!("round {round}: round trip"));
            for chunk_size in [1, 7, 64, 333, 2048, usize::MAX] {
                let what = format!("round {round}: {rows} rows, chunk size {chunk_size}");
                let bytes = encode_table_chunked(&t, chunk_size);
                let bulk = decode_table(&bytes).unwrap();
                assert_identical(&bulk, &decode_table_per_value(&bytes).unwrap(), &what);
                assert_identical(&bulk, &whole, &what);
                assert!(bulk.is_compact());
            }
        }
    }

    #[test]
    fn no_single_byte_flip_decodes_to_different_rows_under_an_equal_digest() {
        // What the store relies on after the page CRC: a blob that still
        // decodes either carries the same rows (the flip hit a column name,
        // a placeholder under a NULL, a pad bit) or a different digest.
        let mut rng = DetRng::seed(0xf11b);
        let mut caught = 0;
        for rows in [3, 70] {
            let t = random_table(&mut rng, rows);
            let (digest, reference) = (content_digest("t", &t), t.canonical_rows());
            let bytes = encode_table_chunked(&t, 64);
            for at in 0..bytes.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut bad = bytes.clone();
                    bad[at] ^= mask;
                    match decode_table(&bad) {
                        Err(_) => caught += 1,
                        Ok(back) if content_digest("t", &back) != digest => caught += 1,
                        Ok(back) => assert_eq!(
                            back.canonical_rows(),
                            reference,
                            "byte {at} ^ {mask:#x}: rows changed under an equal digest"
                        ),
                    }
                }
            }
        }
        assert!(caught > 1000, "only {caught} flips were visible");
    }

    #[test]
    fn absurd_counts_fail_without_allocating_for_them() {
        // Counts a torn write can leave behind: each must fail on the bytes
        // actually present, not by reserving what the count asks for.
        let bytes = encode_table(&sample_table());
        let hdr = 4 + (4 + 2 + 2) + (4 + 4 + 2) + (4 + 5 + 2) + (4 + 6 + 2) + (4 + 3 + 2);
        let mut fields = bytes.clone();
        fields[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_table(&fields).is_err());
        let mut rows = bytes.clone();
        rows[hdr..hdr + 8].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
        assert!(decode_table(&rows).is_err());
        let mut chunk_rows = rows.clone();
        chunk_rows[hdr + 12..hdr + 20].copy_from_slice(&(u64::MAX >> 2).to_le_bytes());
        assert!(decode_table(&chunk_rows).is_err());
    }

    #[test]
    fn table_round_trips_exactly() {
        let t = sample_table();
        let bytes = encode_table(&t);
        let back = decode_table(&bytes).unwrap();
        assert_eq!(t.canonical_rows(), back.canonical_rows());
        assert_eq!(t.num_rows(), back.num_rows());
        assert_eq!(t.schema().fields(), back.schema().fields());
    }

    #[test]
    fn windowed_table_encodes_only_its_rows() {
        let t = sample_table();
        for (off, len) in [(0, 2), (1, 2), (1, 1), (2, 0)] {
            let window = t.slice(off, len);
            assert!(!window.is_compact());
            let compacted = window.clone().compact();
            assert_eq!(encode_table(&window), encode_table(&compacted), "window {off}+{len}");
            let back = decode_table(&encode_table(&window)).unwrap();
            assert!(back.is_compact());
            assert_eq!(back.to_rows(), compacted.to_rows());
        }
    }

    #[test]
    fn empty_table_round_trips() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let t = Table::empty(schema);
        let back = decode_table(&encode_table(&t)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(t.schema().fields(), back.schema().fields());
    }

    #[test]
    fn float_bit_patterns_survive() {
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]).unwrap().into_ref();
        let t = Table::from_rows(
            schema,
            &[vec![Value::Float(-0.0)], vec![Value::Float(f64::MIN_POSITIVE)]],
        )
        .unwrap();
        let back = decode_table(&encode_table(&t)).unwrap();
        let (ColumnData::Float(a), ColumnData::Float(b)) =
            (t.columns()[0].data(), back.columns()[0].data())
        else {
            panic!("not float columns");
        };
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_chunk_encoding_round_trips_exactly() {
        let t = sample_table(); // 3 rows
        let whole = decode_table(&encode_table_chunked(&t, usize::MAX)).unwrap();
        for chunk_size in [1, 2] {
            let bytes = encode_table_chunked(&t, chunk_size);
            let back = decode_table(&bytes).unwrap();
            assert_eq!(back.canonical_rows(), whole.canonical_rows());
            assert_eq!(back.num_rows(), 3);
            // Validity presence survives reassembly per column.
            for (a, b) in whole.columns().iter().zip(back.columns()) {
                assert_eq!(a.validity().is_some(), b.validity().is_some());
            }
        }
    }

    #[test]
    fn non_canonical_all_true_validity_survives_chunking() {
        // A column carrying an explicit all-true bitmap (legal but
        // non-canonical) must come back with the bitmap intact.
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let col =
            Column::new(ColumnData::Int(vec![1, 2, 3, 4, 5]), Some(Bitmap::from_bools(&[true; 5])));
        let t = Table::new(schema, vec![col]).unwrap();
        let back = decode_table(&encode_table_chunked(&t, 2)).unwrap();
        let v = back.columns()[0].validity().expect("all-true bitmap preserved");
        assert_eq!(v.to_bools(), vec![true; 5]);
    }

    #[test]
    fn chunk_row_count_mismatch_is_rejected() {
        let mut bytes = encode_table_chunked(&sample_table(), 2);
        // The total row count sits right after the schema header; bump it
        // so the chunk sections no longer add up.
        let hdr = 4 + (4 + 2 + 2) + (4 + 4 + 2) + (4 + 5 + 2) + (4 + 6 + 2) + (4 + 3 + 2);
        bytes[hdr] = bytes[hdr].wrapping_add(1);
        assert!(decode_table(&bytes).is_err());
    }

    /// Five chunks at the default chunk size: every type, NULLs, empty and
    /// multibyte strings, a NULL slot over a non-empty placeholder.
    fn multi_chunk_table() -> Table {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
            Field::new("active", DataType::Bool),
            Field::new("day", DataType::Date),
        ])
        .unwrap()
        .into_ref();
        let words = ["", "é", "asia", "€uro", "nordics"];
        let rows: Vec<Vec<Value>> = (0..9000i64)
            .map(|i| {
                let null = |v: Value| if i % 7 == 3 { Value::Null } else { v };
                vec![
                    Value::Int(i * 31 - 4000),
                    null(Value::Str(words[i as usize % 5].repeat(i as usize % 3))),
                    null(Value::Float(i as f64 / 8.0 - 100.0)),
                    null(Value::Bool(i % 2 == 0)),
                    Value::Date(i as i32 - 300),
                ]
            })
            .collect();
        let t = Table::from_rows(schema.clone(), &rows).unwrap();
        let mut columns = t.columns().to_vec();
        let junk = |i: usize| if i % 7 == 3 { "junk" } else { "" };
        let ColumnView::Str(names) = columns[1].view() else { panic!("name is a string column") };
        let names = names.iter().enumerate().map(|(i, s)| format!("{s}{}", junk(i)));
        columns[1] = Column::new(ColumnData::Str(names.collect()), columns[1].validity().cloned());
        Table::new(schema, columns).unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The blob format is pinned: the bytes `encode_table` wrote before
    /// string columns became one buffer, so every store directory written
    /// since still opens.
    #[test]
    fn encode_table_bytes_are_pinned() {
        const SAMPLE: &str = concat!(
            "050000000200000069640100040000006e616d6503010500000073636f726502010600000061637469",
            "766500010300000064617904010300000000000000010000000300000000000000000100000000000000",
            "feffffffffffffffffffffffffffff7f01050300000061646100000000000000000103000000000000f8",
            "3f000000000000f0ff0000000000000000010501010364000000fbffffff00000000",
        );
        assert_eq!(hex(&encode_table(&sample_table())), SAMPLE);
        let t = multi_chunk_table();
        let bytes = encode_table(&t);
        assert_eq!(
            (bytes.len(), cv_common::Sig128::of_bytes(&bytes).0),
            (255_084, 0x7bc4_2679_0050_b8b6_25a9_b8ee_c2ec_c1c9)
        );
        assert_identical(&decode_table(&bytes).unwrap(), &t, "multi-chunk round trip");
        assert_identical(&decode_table_per_value(&bytes).unwrap(), &t, "per-value decoder");
    }

    /// Each string is UTF-8 on its own or the blob is refused: `C3` and `A9`
    /// are both invalid alone and `"é"` laid end to end, so a decoder that
    /// checked the whole text buffer but not that every offset falls on a
    /// char boundary would accept them and a later slice would split a char.
    #[test]
    fn strings_valid_only_when_concatenated_are_refused() {
        assert_eq!(std::str::from_utf8(&[0xC3, 0xA9]), Ok("é"));
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap().into_ref();
        let t =
            Table::from_rows(schema, &[vec![Value::Str("q".into())], vec![Value::Str("z".into())]])
                .unwrap();
        let mut bytes = encode_table(&t);
        // The blob ends `01 00 00 00 'q' 01 00 00 00 'z'`.
        let end = bytes.len();
        assert_eq!((bytes[end - 6], bytes[end - 1]), (b'q', b'z'));
        (bytes[end - 6], bytes[end - 1]) = (0xC3, 0xA9);
        assert_eq!(decode_table(&bytes).err(), Some(CodecError("invalid utf-8")));
        assert!(decode_table_per_value(&bytes).is_err());
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = encode_table(&sample_table());
        for cut in 0..bytes.len() {
            assert!(decode_table(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        // Trailing garbage is also rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_table(&extended).is_err());
    }
}
