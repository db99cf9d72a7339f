//! The three join algorithms (paper Fig. 9: hash, merge, loop).
//!
//! All three emit `(left row, right row)` matches in the same order — left
//! rows ascending, each left row's right matches ascending — so the
//! optimizer's algorithm choice never moves a byte of the result.
//! [`loop_join`] is the `Value`-semantics reference the other two are
//! tested against.

use super::keys::KeyCols;
use super::{map_chunks, ExecContext};
use crate::plan::JoinKind;
use cv_common::{CvError, Result};
use cv_data::column::{ColumnView, PAD};
use cv_data::schema::Schema;
use cv_data::sortkey::{order_rows, sorted_keys};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};

/// Row-at-a-time key equality — reference semantics, kept for `loop_join`
/// (the differential baseline the vectorized paths are tested against).
fn keys_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.sql_eq(y) == Some(true))
}

fn resolve_side<'a>(
    t: &Table,
    names: impl Iterator<Item = &'a String>,
    side: &str,
) -> Result<Vec<usize>> {
    names
        .map(|name| {
            t.schema()
                .index_of(name)
                .ok_or_else(|| CvError::exec(format!("{side} join key `{name}` missing")))
        })
        .collect()
}

/// Resolve join key columns to indices.
fn resolve_keys(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
) -> Result<(Vec<usize>, Vec<usize>)> {
    Ok((
        resolve_side(left, on.iter().map(|(l, _)| l), "left")?,
        resolve_side(right, on.iter().map(|(_, r)| r), "right")?,
    ))
}

/// Rotate a side-swapped join's output columns back into the logical
/// order. The lowered plan emits `lowered_left ++ lowered_right`; for a
/// swapped join that is `logical_right ++ logical_left`, so the first
/// `probe_width` columns move to the back. Column handles are shared, so
/// this is O(columns), not O(rows).
pub(super) fn restore_swapped_columns(
    out: Table,
    swapped: bool,
    probe_width: usize,
) -> Result<Table> {
    if !swapped {
        return Ok(out);
    }
    let fields: Vec<_> = out.schema().fields()[probe_width..]
        .iter()
        .chain(&out.schema().fields()[..probe_width])
        .cloned()
        .collect();
    let mut columns = out.columns()[probe_width..].to_vec();
    columns.extend_from_slice(&out.columns()[..probe_width]);
    Table::new(Schema::new(fields)?.into_ref(), columns)
}

/// Assemble join output from matched row indices; a right index of [`PAD`]
/// (a left-outer miss) is a NULL row. A semi join ignores `right_idx`. Both
/// sides are deferred gathers: a column is copied when an operator above
/// reads it, and not otherwise.
fn join_output_from_indices(
    left: &Table,
    right: &Table,
    left_idx: Vec<usize>,
    right_idx: Vec<usize>,
    kind: JoinKind,
) -> Result<Table> {
    // The joins emit left rows ascending. A left join emits each at least
    // once and a semi join at most once, so as many rows out as in is every
    // row once — the left side is shared, not gathered. An inner join can
    // repeat one row and miss another: that length needs the scan.
    let left_part = match (left_idx.len() == left.num_rows(), kind) {
        (true, JoinKind::Left | JoinKind::Semi) => left.clone(),
        (true, JoinKind::Inner) => left.take(&left_idx)?,
        (false, _) => left.gather(left_idx),
    };
    if kind == JoinKind::Semi {
        return Ok(left_part);
    }
    let schema = left.schema().join(right.schema())?.into_ref();
    let mut columns = left_part.columns().to_vec();
    columns.extend_from_slice(right.gather_padded(right_idx).columns());
    Table::new(schema, columns)
}

/// End of a hash chain / empty bucket.
const NIL: u32 = u32::MAX;

/// The finished hash-join build side — a pipeline-breaker state the
/// operator-state cache can snapshot and restore: the materialized build
/// table, its resolved key column indices, and a chained hash table over
/// its rows (`head[hash & mask]` is a bucket's first row, `next[row]` the
/// following one; chains ascend, NULL-key rows are in none).
#[derive(Debug)]
pub struct JoinBuildState {
    pub table: Table,
    pub key_cols: Vec<usize>,
    head: Vec<u32>,
    next: Vec<u32>,
}

impl JoinBuildState {
    /// Resident bytes: the table plus the two chain arrays.
    pub fn byte_size(&self) -> u64 {
        self.table.byte_size() + 4 * (self.head.len() + self.next.len()) as u64
    }
}

/// Build side is a pipeline breaker: hash the build table column-wise in
/// one pass and chain its rows before any probe chunk runs.
pub(super) fn build_join_state(right: &Table, on: &[(String, String)]) -> Result<JoinBuildState> {
    let rk = resolve_side(right, on.iter().map(|(_, r)| r), "right")?;
    let (hashes, valid) = KeyCols::from_table(right, &rk).join_hashes();
    let n = right.num_rows();
    assert!(n < NIL as usize, "build rows are 32-bit");
    // Two buckets a row: chains of distinct keys stay near one entry.
    let mut head = vec![NIL; (2 * n).next_power_of_two()];
    let mut next = vec![NIL; n];
    let mask = head.len() - 1;
    // Pushing rows front-first in descending order leaves chains ascending.
    for row in (0..n).rev().filter(|&row| valid[row]) {
        let bucket = &mut head[hashes[row] as usize & mask];
        next[row] = *bucket;
        *bucket = row as u32;
    }
    // The state may be published to the operator-state cache: it owns its rows.
    Ok(JoinBuildState { table: right.clone().compact(), key_cols: rk, head, next })
}

/// Walk each probe row's bucket chain, keeping the build rows `same`
/// accepts: `(probe rows, build rows)` of the matches, probe rows ascending
/// and each one's build rows ascending.
fn probe_rows(
    hashes: &[u64],
    valid: &[bool],
    state: &JoinBuildState,
    kind: JoinKind,
    same: impl Fn(usize, usize) -> bool,
) -> (Vec<usize>, Vec<usize>) {
    let mask = state.head.len() - 1;
    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
    for lrow in 0..hashes.len() {
        let mut matched = false;
        if valid[lrow] {
            let mut rrow = state.head[hashes[lrow] as usize & mask];
            while rrow != NIL {
                if same(lrow, rrow as usize) {
                    matched = true;
                    if kind == JoinKind::Semi {
                        break;
                    }
                    left_idx.push(lrow);
                    right_idx.push(rrow as usize);
                }
                rrow = state.next[rrow as usize];
            }
        }
        match kind {
            JoinKind::Semi if matched => left_idx.push(lrow),
            JoinKind::Left if !matched => {
                left_idx.push(lrow);
                right_idx.push(PAD);
            }
            _ => {}
        }
    }
    (left_idx, right_idx)
}

/// The probe side streams chunk-at-a-time against the (possibly restored)
/// build state. Each chunk emits its matched index pairs (chunk-local left
/// rows ascending, candidates ascending); in chunk order they are the
/// monolithic emit order, and the output is gathered from them once, over
/// the whole probe table. Normalized, as every chunk reassembly is. Returns
/// the morsel count for the work ledger.
pub(super) fn hash_join_probe(
    left: &Table,
    state: &JoinBuildState,
    on: &[(String, String)],
    kind: JoinKind,
    ctx: &mut ExecContext<'_>,
) -> Result<(Table, usize)> {
    let lk = resolve_side(left, on.iter().map(|(l, _)| l), "left")?;
    let right = &state.table;
    let rkeys = KeyCols::from_table(right, &state.key_cols);
    let probe = |chunk: &Table| {
        let lkeys = KeyCols::from_table(chunk, &lk);
        let (hashes, valid) = lkeys.join_hashes();
        // A chain holds every build row of the bucket, not only this key's:
        // a single same-typed key is told apart on the two typed slices
        // (rows that reach the test are non-NULL on both sides).
        match (lkeys.single(), rkeys.single()) {
            (Some(ColumnView::Int(l)), Some(ColumnView::Int(r))) => {
                probe_rows(&hashes, &valid, state, kind, |i, j| l[i] == r[j])
            }
            (Some(ColumnView::Str(l)), Some(ColumnView::Str(r))) => {
                probe_rows(&hashes, &valid, state, kind, |i, j| l[i] == r[j])
            }
            (Some(ColumnView::Date(l)), Some(ColumnView::Date(r))) => {
                probe_rows(&hashes, &valid, state, kind, |i, j| l[i] == r[j])
            }
            _ => probe_rows(&hashes, &valid, state, kind, |i, j| lkeys.rows_eq_sql(i, &rkeys, j)),
        }
    };
    let pairs = map_chunks(left, ctx, true, &|chunk, _| Ok((chunk.num_rows(), probe(chunk))))?;
    let (mut left_idx, mut right_idx, mut off) = (Vec::new(), Vec::new(), 0);
    for (rows, (l, r)) in &pairs {
        left_idx.extend(l.iter().map(|i| off + i));
        right_idx.extend_from_slice(r);
        off += rows;
    }
    let out = join_output_from_indices(left, right, left_idx, right_idx, kind)?;
    Ok((out.normalized(), pairs.len()))
}

pub(super) fn loop_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    kind: JoinKind,
) -> Result<Table> {
    let (lk, rk) = resolve_keys(left, right, on)?;
    let key_row = |t: &Table, cols: &[usize], row: usize| -> Vec<Value> {
        cols.iter().map(|&c| t.column(c).value(row)).collect()
    };
    // The right side's key rows are boxed once per join, not once per pair.
    let rkeys: Vec<Vec<Value>> = (0..right.num_rows()).map(|r| key_row(right, &rk, r)).collect();
    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
    for lrow in 0..left.num_rows() {
        let lkey = key_row(left, &lk, lrow);
        let mut matched = false;
        for (rrow, rkey) in rkeys.iter().enumerate() {
            if keys_equal(&lkey, rkey) {
                matched = true;
                if kind == JoinKind::Semi {
                    break;
                }
                left_idx.push(lrow);
                right_idx.push(rrow);
            }
        }
        match kind {
            JoinKind::Semi if matched => left_idx.push(lrow),
            JoinKind::Left if !matched => {
                left_idx.push(lrow);
                right_idx.push(PAD);
            }
            _ => {}
        }
    }
    join_output_from_indices(left, right, left_idx, right_idx, kind)
}

/// Sort both sides by key once, merge them into one equal-key *run* of the
/// sorted right side per left row, then emit left rows in row order — each
/// with its run, whose rows ascend because the sort breaks key ties on the
/// row id. No pair list is built or re-sorted.
pub(super) fn merge_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    kind: JoinKind,
) -> Result<Table> {
    let (lk, rk) = resolve_keys(left, right, on)?;
    let dtypes =
        |t: &Table, cols: &[usize]| cols.iter().map(|&c| t.column(c).dtype()).collect::<Vec<_>>();
    let (ltypes, rtypes) = (dtypes(left, &lk), dtypes(right, &rk));
    // `runs[l]` is left row `l`'s `[start, end)` in `rorder`; empty (as for
    // every NULL-key row) unless the merge finds its key on the right.
    let mut runs = vec![(0usize, 0usize); left.num_rows()];
    let single = match (&lk[..], &rk[..]) {
        ([l], [r]) if ltypes == rtypes => {
            sorted_keys(left.column(*l), true).zip(sorted_keys(right.column(*r), true))
        }
        _ => None,
    };
    let rorder: Vec<usize> = if let Some((ls, rs)) = single {
        // One fixed-width key of one type on both sides: the sort-once key
        // words compare across sides, NULL rows are not in the pairs at all.
        let (lp, rp) = (&ls.pairs, &rs.pairs);
        let (mut i, mut j) = (0, 0);
        while i < lp.len() {
            let key = lp[i].0;
            while j < rp.len() && rp[j].0 < key {
                j += 1;
            }
            let start = j;
            while j < rp.len() && rp[j].0 == key {
                j += 1;
            }
            while i < lp.len() && lp[i].0 == key {
                runs[lp[i].1 as usize] = (start, j);
                i += 1;
            }
        }
        rp.iter().map(|&(_, row)| row as usize).collect()
    } else {
        // Strings, several key columns, INT against FLOAT: each side is
        // ordered by its own columns and the merge compares across sides
        // by `Value::total_cmp`, NULL keys matching nothing.
        let lkeys = KeyCols::from_table(left, &lk);
        let rkeys = KeyCols::from_table(right, &rk);
        let by_key = |t: &Table, cols: &[usize]| {
            let keys: Vec<_> = cols.iter().map(|&c| (t.column(c), true)).collect();
            order_rows(&keys, t.num_rows())
        };
        let (lorder, rorder) = (by_key(left, &lk), by_key(right, &rk));
        let (mut i, mut j) = (0, 0);
        while i < lorder.len() {
            let lrow = lorder[i];
            if lkeys.has_null(lrow) {
                i += 1;
                continue;
            }
            while j < rorder.len()
                && (rkeys.has_null(rorder[j]) || rkeys.cmp_rows(rorder[j], &lkeys, lrow).is_lt())
            {
                j += 1;
            }
            // `j` stays at the run's start: the next left key may compare
            // equal to the same right rows (two INTs above 2^53 that one
            // FLOAT equals).
            let mut end = j;
            while end < rorder.len() && rkeys.cmp_rows(rorder[end], &lkeys, lrow).is_eq() {
                end += 1;
            }
            while i < lorder.len() && lkeys.cmp_rows(lorder[i], &lkeys, lrow).is_eq() {
                runs[lorder[i]] = (j, end);
                i += 1;
            }
        }
        rorder
    };
    // A run holds right rows of one key in row order — except that a FLOAT
    // left key can equal several distinct INT right keys (above 2^53),
    // whose rows then ascend only within each INT.
    let runs_ascend =
        !ltypes.iter().zip(&rtypes).any(|(l, r)| (*l, *r) == (DataType::Float, DataType::Int));

    let out_rows: usize = runs
        .iter()
        .map(|&(start, end)| match kind {
            JoinKind::Inner => end - start,
            JoinKind::Left => (end - start).max(1),
            JoinKind::Semi => (end > start) as usize,
        })
        .sum();
    let mut left_idx = Vec::with_capacity(out_rows);
    let mut right_idx = Vec::with_capacity(if kind == JoinKind::Semi { 0 } else { out_rows });
    let mut sorted_run = Vec::new();
    for (lrow, &(start, end)) in runs.iter().enumerate() {
        if start == end {
            if kind == JoinKind::Left {
                left_idx.push(lrow);
                right_idx.push(PAD);
            }
        } else if kind == JoinKind::Semi {
            left_idx.push(lrow);
        } else {
            let mut run = &rorder[start..end];
            if !runs_ascend {
                sorted_run.clear();
                sorted_run.extend_from_slice(run);
                sorted_run.sort_unstable();
                run = &sorted_run;
            }
            left_idx.extend(std::iter::repeat_n(lrow, run.len()));
            right_idx.extend_from_slice(run);
        }
    }
    join_output_from_indices(left, right, left_idx, right_idx, kind)
}
