//! Fixed-size chunk sequences for morsel-driven execution.
//!
//! A [`ChunkedTable`] is a [`Table`] viewed as a sequence of fixed-size
//! chunks — the morsels that stream through operator pipelines and get
//! scheduled across worker threads. Each chunk is itself a `Table` whose
//! columns are windows over the source table's buffers
//! ([`Table::slice`]), so splitting copies no rows; a chunk that is handed
//! to another owner is compacted first ([`Table::compact`]).
//!
//! The layout contract: chunk `k` of a table with `rows` rows covers rows
//! `[k * chunk_size, min((k + 1) * chunk_size, rows))`. An empty table is
//! one empty chunk, so pipelines never special-case zero rows.

use crate::schema::SchemaRef;
use crate::table::Table;
use cv_common::Result;

/// Default rows per chunk. 2048 rows keeps a chunk of typical width inside
/// the L2 cache while leaving enough work per morsel to amortize
/// scheduling; drivers expose it as `--chunk-size`.
pub const DEFAULT_CHUNK_SIZE: usize = 2048;

/// Row ranges `(offset, len)` of each chunk of an `rows`-row table. An
/// empty table yields one empty range so every pipeline sees at least one
/// chunk (operators probe it for schema/dtype).
pub fn chunk_ranges(rows: usize, chunk_size: usize) -> Vec<(usize, usize)> {
    let chunk = chunk_size.max(1);
    if rows == 0 {
        return vec![(0, 0)];
    }
    (0..rows.div_ceil(chunk)).map(|k| (k * chunk, chunk.min(rows - k * chunk))).collect()
}

/// A table as a sequence of fixed-size chunks.
#[derive(Clone, Debug)]
pub struct ChunkedTable {
    schema: SchemaRef,
    chunks: Vec<Table>,
}

impl ChunkedTable {
    /// Split a table into `chunk_size`-row chunks, each a window over the
    /// table's buffers (no row is copied at any chunk size).
    pub fn from_table(table: &Table, chunk_size: usize) -> ChunkedTable {
        let chunks = chunk_ranges(table.num_rows(), chunk_size)
            .into_iter()
            .map(|(off, len)| table.slice(off, len))
            .collect();
        ChunkedTable { schema: table.schema().clone(), chunks }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    pub fn num_rows(&self) -> usize {
        self.chunks.iter().map(Table::num_rows).sum()
    }

    pub fn chunk(&self, k: usize) -> &Table {
        &self.chunks[k]
    }

    pub fn chunks(&self) -> &[Table] {
        &self.chunks
    }

    /// Reassemble into one contiguous (normalized) table.
    pub fn into_table(self) -> Result<Table> {
        Table::from_chunks(self.schema, &self.chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};

    fn table(n: usize) -> Table {
        let schema =
            Schema::new(vec![Field::new("id", DataType::Int), Field::new("name", DataType::Str)])
                .unwrap()
                .into_ref();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    if i % 7 == 3 { Value::Null } else { Value::Int(i as i64) },
                    Value::Str(format!("r{i}")),
                ]
            })
            .collect();
        Table::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn ranges_cover_all_rows_including_odd_tail() {
        assert_eq!(chunk_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(chunk_ranges(8, 4), vec![(0, 4), (4, 4)]);
        assert_eq!(chunk_ranges(3, 100), vec![(0, 3)]);
    }

    #[test]
    fn split_and_reassemble_is_byte_identical_at_any_chunk_size() {
        let t = table(100).normalized();
        for chunk_size in [1, 3, 7, 64, 100, 5000] {
            let ct = ChunkedTable::from_table(&t, chunk_size);
            assert_eq!(ct.num_rows(), 100);
            let back = ct.into_table().unwrap();
            assert_eq!(back.to_rows(), t.to_rows(), "chunk {chunk_size}");
            assert_eq!(back.byte_size(), t.byte_size(), "chunk {chunk_size}");
            for ci in 0..t.num_columns() {
                assert_eq!(
                    back.column(ci).validity(),
                    t.column(ci).validity(),
                    "chunk {chunk_size} col {ci}"
                );
            }
        }
    }

    #[test]
    fn single_chunk_split_is_zero_copy() {
        let t = table(10);
        let ct = ChunkedTable::from_table(&t, DEFAULT_CHUNK_SIZE);
        assert_eq!(ct.num_chunks(), 1);
        assert!(ct.chunk(0).column(0).ptr_eq(t.column(0)));
    }

    #[test]
    fn empty_table_is_one_empty_chunk() {
        let t = Table::empty(table(1).schema().clone());
        let ct = ChunkedTable::from_table(&t, 4);
        assert_eq!(ct.num_chunks(), 1);
        assert_eq!(ct.num_rows(), 0);
        assert_eq!(ct.into_table().unwrap().num_rows(), 0);
    }

    #[test]
    fn fully_masked_filter_chunks_reassemble_empty() {
        let t = table(10);
        let ct = ChunkedTable::from_table(&t, 4);
        let filtered: Vec<Table> = ct
            .chunks()
            .iter()
            .map(|c| c.filter(&Bitmap::all_clear(c.num_rows())).unwrap())
            .collect();
        let out = Table::from_chunks(t.schema().clone(), &filtered).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 2);
    }
}
