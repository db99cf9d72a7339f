//! Fixed-size chunks for morsel-driven execution.
//!
//! Operators cut a table into fixed-size chunks — the morsels that stream
//! through operator pipelines and get scheduled across worker threads — at
//! [`chunk_ranges`]. Each chunk is a window over the table's buffers
//! ([`crate::table::Table::slice`]), so cutting copies no rows.
//!
//! The layout contract: chunk `k` of a table with `rows` rows covers rows
//! `[k * chunk_size, min((k + 1) * chunk_size, rows))`. An empty table is
//! one empty chunk, so pipelines never special-case zero rows.

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

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn ranges_cover_all_rows_including_odd_tail() {
        assert_eq!(chunk_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(chunk_ranges(8, 4), vec![(0, 4), (4, 4)]);
        assert_eq!(chunk_ranges(3, 100), vec![(0, 3)]);
    }
}
