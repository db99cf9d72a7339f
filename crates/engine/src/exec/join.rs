//! The three join algorithms (paper Fig. 9: hash, merge, loop).
//!
//! All three emit `(left row, right row)` matches in the same order — left
//! rows ascending, each left row's right matches ascending — so the
//! optimizer's algorithm choice never moves a byte of the result.
//! [`loop_join`] is the `Value`-semantics reference the other two are
//! tested against.
//!
//! "Merge" names the plan operator the optimizer picks for big inputs, and
//! what the simulated cluster is charged for: a sort-merge. In this process
//! [`merge_join`] sorts nothing. It codes the keys of both sides to dense
//! integers ([`codes::encode`], as the aggregate does), buckets the right
//! side's rows by code and emits each left row's bucket; the hash join, a
//! chained table over one side, is the kernel for smaller inputs.

use super::keys::KeyCols;
use super::{map_chunks, ExecContext};
use crate::plan::JoinKind;
use cv_common::{CvError, Result};
use cv_data::codes::{self, Class, Codes};
use cv_data::column::{ColumnView, PAD};
use cv_data::schema::Schema;
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

/// The finished hash-join build side: a chained hash table over the right
/// input's rows (`head[hash & mask]` is a bucket's first row, `next[row]`
/// the following one; chains ascend, NULL-key rows are in none).
struct JoinBuildState {
    head: Vec<u32>,
    next: Vec<u32>,
}

/// Build side is a pipeline breaker: hash the build keys column-wise in one
/// pass and chain their rows before any probe chunk runs.
fn build_join_state(rkeys: &KeyCols<'_>) -> JoinBuildState {
    let (hashes, valid) = rkeys.join_hashes();
    let n = hashes.len();
    debug_assert!(n < NIL as usize, "build rows are 32-bit");
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
    JoinBuildState { head, next }
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

/// Build on the right input, then stream the probe side chunk-at-a-time
/// against the build state. Each chunk emits its matched index pairs
/// (chunk-local left rows ascending, candidates ascending); in chunk order
/// they are the monolithic emit order, and the output is gathered from them
/// once, over the whole probe table. Normalized, as every chunk reassembly
/// is. Returns the morsel count for the work ledger.
pub(super) fn hash_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    kind: JoinKind,
    ctx: &mut ExecContext<'_>,
) -> Result<(Table, usize)> {
    let (lk, rk) = resolve_keys(left, right, on)?;
    let rows = right.num_rows();
    if rows >= NIL as usize {
        return Err(CvError::exec(format!("hash join build of {rows} rows: rows are 32-bit")));
    }
    let rkeys = KeyCols::from_table(right, &rk);
    let state = &build_join_state(&rkeys);
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

/// The join key of every row of both sides as dense codes, right rows then
/// left rows: two rows carry one code iff their keys are equal column by
/// column under `sql_eq`, and code 0 is a key with a NULL in it, which joins
/// nothing. Each column pair is encoded as one column of both sides' rows
/// and the columns fold pairwise; a pair's types only choose its word.
fn key_codes(left: &Table, lk: &[usize], right: &Table, rk: &[usize]) -> Result<Codes> {
    let rows = right.num_rows() + left.num_rows();
    if rows >= u32::MAX as usize {
        return Err(CvError::exec(format!("merge join of {rows} rows: key codes are 32-bit")));
    }
    let mut key: Option<Codes> = None;
    for (&l, &r) in lk.iter().zip(rk) {
        let (l, r) = (left.column(l), right.column(r));
        let class = match (l.dtype(), r.dtype()) {
            (a, b) if a == b => Class::Group,
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => Class::AsFloat,
            (a, b) => return Err(CvError::exec(format!("join key of {a} against {b}"))),
        };
        let column = codes::encode(&[r, l], rows, class);
        key = Some(match key {
            None => column,
            Some(key) => codes::pair_codes(&key, &column),
        });
    }
    // No key column: every row carries the one empty key.
    Ok(key.unwrap_or_else(|| Codes { codes: vec![1; rows], cardinality: 2 }))
}

/// Encode, bucket, emit. Both sides' keys become dense codes
/// ([`key_codes`]); one counting sort lays the right side's rows out by code
/// (`rows[offsets[c]..offsets[c + 1]]` are the rows of code `c`, scattered in
/// row order, so each bucket ascends); then every left row, in row order,
/// emits its code's bucket. Nothing is sorted and no two keys are compared.
pub(super) fn merge_join(
    left: &Table,
    right: &Table,
    on: &[(String, String)],
    kind: JoinKind,
) -> Result<Table> {
    let (lk, rk) = resolve_keys(left, right, on)?;
    let Codes { codes, cardinality } = key_codes(left, &lk, right, &rk)?;
    let (rcodes, lcodes) = codes.split_at(right.num_rows());

    // Counts land two slots up and the running sums one slot up, so that
    // the scatter, bumping `offsets[c + 1]` from the bucket's start to its
    // end, leaves `offsets[c]` its start. Code 0 — NULL — is never counted:
    // its bucket stays empty, and a NULL left row finds nothing in it.
    let mut offsets = vec![0u32; cardinality + 2];
    for &c in rcodes.iter().filter(|&&c| c != 0) {
        offsets[c as usize + 2] += 1;
    }
    for c in 2..offsets.len() {
        offsets[c] += offsets[c - 1];
    }
    let mut rows = vec![0u32; offsets[cardinality + 1] as usize];
    for (row, &c) in rcodes.iter().enumerate().filter(|(_, &c)| c != 0) {
        let at = &mut offsets[c as usize + 1];
        rows[*at as usize] = row as u32;
        *at += 1;
    }
    let bucket = |c: u32| &rows[offsets[c as usize] as usize..offsets[c as usize + 1] as usize];

    let out_rows: usize = lcodes
        .iter()
        .map(|&c| match kind {
            JoinKind::Inner => bucket(c).len(),
            JoinKind::Left => bucket(c).len().max(1),
            JoinKind::Semi => !bucket(c).is_empty() as usize,
        })
        .sum();
    let mut left_idx = Vec::with_capacity(out_rows);
    let mut right_idx = Vec::with_capacity(if kind == JoinKind::Semi { 0 } else { out_rows });
    for (lrow, &c) in lcodes.iter().enumerate() {
        let matches = bucket(c);
        if matches.is_empty() {
            if kind == JoinKind::Left {
                left_idx.push(lrow);
                right_idx.push(PAD);
            }
        } else if kind == JoinKind::Semi {
            left_idx.push(lrow);
        } else {
            left_idx.extend(std::iter::repeat_n(lrow, matches.len()));
            right_idx.extend(matches.iter().map(|&rrow| rrow as usize));
        }
    }
    join_output_from_indices(left, right, left_idx, right_idx, kind)
}
