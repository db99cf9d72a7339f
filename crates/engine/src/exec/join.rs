//! The equi-join kernel behind the plan's three join labels (paper Fig. 9:
//! hash, merge, loop).
//!
//! One kernel, [`equi_join`], produces the rows of every join. It codes the
//! keys of both sides to dense integers ([`codes::encode`], as the aggregate
//! does), buckets the right side's rows by code and emits each left row's
//! bucket: left rows ascending, each left row's right matches ascending. So
//! the optimizer's label never moves a byte of the result. The label is what
//! the simulated cluster is charged for, and the executor's Join arm reads
//! two things off it:
//!
//! - the charge: `CostModel::hash_join`, `merge_join` or `nested_loop_join`,
//!   plus `morsel_dispatch` of the morsels the label stands for (Hash: the
//!   left rows cut at `ctx.chunk_size`; Merge and Loop: one);
//! - the validity form: Hash normalizes its output, the others do not.

use crate::plan::JoinKind;
use cv_common::{CvError, Result};
use cv_data::codes::{self, Class, Codes};
use cv_data::column::PAD;
use cv_data::schema::Schema;
use cv_data::table::Table;
use cv_data::value::DataType;

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
    // The join emits left rows ascending. A left join emits each at least
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

/// The join key of every row of both sides as dense codes, right rows then
/// left rows: two rows carry one code iff their keys are equal column by
/// column under `sql_eq`, and code 0 is a key with a NULL in it, which joins
/// nothing. Each column pair is encoded as one column of both sides' rows
/// and the columns fold pairwise; a pair's types only choose its word.
fn key_codes(left: &Table, lk: &[usize], right: &Table, rk: &[usize]) -> Result<Codes> {
    let rows = right.num_rows() + left.num_rows();
    if rows >= u32::MAX as usize {
        return Err(CvError::exec(format!("join of {rows} rows: key codes are 32-bit")));
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
/// emits its code's bucket into index vectors sized by a counting pass.
/// Nothing is sorted and no two keys are compared.
pub(super) fn equi_join(
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
    // A semi join emits left rows only; a left join's miss pads its right.
    let mut left_idx = Vec::with_capacity(out_rows);
    let mut right_idx = Vec::with_capacity(if kind == JoinKind::Semi { 0 } else { out_rows });
    for (lrow, &c) in lcodes.iter().enumerate() {
        match (bucket(c), kind) {
            ([], JoinKind::Left) => {
                left_idx.push(lrow);
                right_idx.push(PAD);
            }
            ([], _) => {}
            (_, JoinKind::Semi) => left_idx.push(lrow),
            // A pair at a time: most left rows match once, and two pushes
            // beat two `extend`s of one.
            (matches, _) => {
                for &rrow in matches {
                    left_idx.push(lrow);
                    right_idx.push(rrow as usize);
                }
            }
        }
    }
    join_output_from_indices(left, right, left_idx, right_idx, kind)
}
