//! Hash aggregation: encode the keys, then combine integers.
//!
//! Group keys and aggregate arguments are evaluated chunk-at-a-time (the
//! parallel part, fanned through the morsel runner). Then, serially:
//!
//! 1. every key column becomes dense integer codes, once
//!    ([`codes::encode`]), and the code columns fold left to right into a
//!    dense **group id** per input row ([`codes::pair_ids`]) — ids in
//!    first-seen row order, each with the row it was first seen at;
//! 2. each aggregate runs one tight loop per chunk over `(group id, typed
//!    argument slice)` into struct-of-arrays accumulators sized to the group
//!    count ([`Accumulator`]). COUNT(DISTINCT) is step 1 again: its argument
//!    is encoded, and a group's count is the first sightings of
//!    `(group id, code)`.
//!
//! An aggregate still meets the rows of a group in global row order (chunks
//! in order, rows in order within each), so order-sensitive accumulation —
//! float SUM/AVG — produces the monolithic bit pattern at every chunk size
//! and worker count.

use super::{map_chunks, morsel, ExecContext};
use crate::expr::eval::{eval, EvalCtx};
use crate::expr::{AggExpr, AggFunc, ScalarExpr};
use cv_common::{CvError, Result};
use cv_data::bitmap::Bitmap;
use cv_data::chunk::chunk_ranges;
use cv_data::codes::{self, Class};
use cv_data::column::{Column, ColumnBuilder, ColumnData, ColumnView};
use cv_data::schema::SchemaRef;
use cv_data::table::Table;
use cv_data::value::DataType;
use std::cmp::Ordering;

/// Calls `f(row)` for every non-NULL row of `col`, in order.
#[inline]
fn for_each_valid(col: &Column, mut f: impl FnMut(usize)) {
    match col.validity() {
        None => (0..col.len()).for_each(f),
        Some(valid) => (0..col.len()).filter(|&i| valid.get(i)).for_each(&mut f),
    }
}

/// Calls `f(row, value)` for every non-NULL row of a numeric column,
/// widened like `Value::as_f64` (Int, Float, Date → f64); other types
/// contribute nothing.
#[inline]
fn for_each_number(col: &Column, mut f: impl FnMut(usize, f64)) {
    match col.view() {
        ColumnView::Int(v) => for_each_valid(col, |i| f(i, v[i] as f64)),
        ColumnView::Float(v) => for_each_valid(col, |i| f(i, v[i])),
        ColumnView::Date(v) => for_each_valid(col, |i| f(i, v[i] as f64)),
        ColumnView::Bool(_) | ColumnView::Str(_) => {}
    }
}

/// Type rank matching `Value::total_cmp` (Int and Float share a rank and
/// compare numerically).
fn rank(t: DataType) -> u8 {
    match t {
        DataType::Bool => 1,
        DataType::Int | DataType::Float => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

/// Typed cell comparison matching `Value::total_cmp` (NULL ranks below
/// everything, NULLs compare equal): MIN/MAX's comparison.
fn cmp_cells(a: &Column, i: usize, b: &Column, j: usize) -> Ordering {
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    match (a.view(), b.view()) {
        (ColumnView::Bool(x), ColumnView::Bool(y)) => x[i].cmp(&y[j]),
        (ColumnView::Int(x), ColumnView::Int(y)) => x[i].cmp(&y[j]),
        (ColumnView::Float(x), ColumnView::Float(y)) => x[i].total_cmp(&y[j]),
        (ColumnView::Int(x), ColumnView::Float(y)) => (x[i] as f64).total_cmp(&y[j]),
        (ColumnView::Float(x), ColumnView::Int(y)) => x[i].total_cmp(&(y[j] as f64)),
        (ColumnView::Str(x), ColumnView::Str(y)) => x[i].cmp(&y[j]),
        (ColumnView::Date(x), ColumnView::Date(y)) => x[i].cmp(&y[j]),
        _ => rank(a.dtype()).cmp(&rank(b.dtype())),
    }
}

/// One aggregate's state for every group, a vector per component.
enum Accumulator<'a> {
    /// COUNT, and COUNT(DISTINCT) once its first sightings are counted.
    Count(Vec<i64>),
    /// SUM over INT accumulates in checked i64 — overflow is an execution
    /// error, not a silent drift through f64 rounding.
    SumInt {
        totals: Vec<i64>,
        any: Vec<bool>,
    },
    SumFloat {
        totals: Vec<f64>,
        any: Vec<bool>,
        int_out: bool,
    },
    /// MIN (`keep == Less`) or MAX (`Greater`): the best cell of a group as
    /// `(chunk, row)` into `args`, the argument column of every chunk — a
    /// handle, not a copied value. A cell replaces the best one only when it
    /// compares strictly so, hence ties keep the first.
    Best {
        cells: Vec<Option<(u32, u32)>>,
        keep: Ordering,
        args: &'a [&'a Column],
    },
    Avg {
        totals: Vec<f64>,
        counts: Vec<i64>,
    },
}

impl<'a> Accumulator<'a> {
    /// The aggregate over every input row, in row order: `gids[row]` is the
    /// row's group (below `groups`), `ranges` cuts the rows into the chunks
    /// `args` holds the argument column of (`None` for COUNT(*)).
    fn over(
        func: AggFunc,
        int_out: bool,
        gids: &[u32],
        groups: usize,
        ranges: &[(usize, usize)],
        args: Option<&'a [&'a Column]>,
    ) -> Result<Accumulator<'a>> {
        let Some(args) = args else {
            // COUNT(*) has no argument: every row counts.
            let mut counts = vec![0; groups];
            gids.iter().for_each(|&g| counts[g as usize] += 1);
            return Ok(Accumulator::Count(counts));
        };
        let arg_dtype = args.first().map(|c| c.dtype());
        let mut acc = match func {
            AggFunc::Count => Accumulator::Count(vec![0; groups]),
            AggFunc::CountDistinct => {
                let mut counts = vec![0; groups];
                let values = codes::encode(args, gids.len(), Class::Distinct);
                let seen = codes::pair_ids(gids, groups, &values);
                for &row in seen.first.iter().filter(|&&row| values.codes[row] != 0) {
                    counts[gids[row] as usize] += 1;
                }
                return Ok(Accumulator::Count(counts));
            }
            AggFunc::Sum if int_out && arg_dtype == Some(DataType::Int) => {
                Accumulator::SumInt { totals: vec![0; groups], any: vec![false; groups] }
            }
            AggFunc::Sum => Accumulator::SumFloat {
                totals: vec![0.0; groups],
                any: vec![false; groups],
                int_out,
            },
            AggFunc::Min | AggFunc::Max => Accumulator::Best {
                cells: vec![None; groups],
                keep: if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater },
                args,
            },
            AggFunc::Avg => Accumulator::Avg { totals: vec![0.0; groups], counts: vec![0; groups] },
        };
        for (chunk, (&(off, len), col)) in ranges.iter().zip(args).enumerate() {
            acc.update(&gids[off..off + len], chunk, col)?;
        }
        Ok(acc)
    }

    /// Fold one chunk in: `gids[row]` is the group of row `row` of `col`,
    /// the argument in chunk `chunk`.
    fn update(&mut self, gids: &[u32], chunk: usize, col: &Column) -> Result<()> {
        let gid = |row: usize| gids[row] as usize;
        match self {
            Accumulator::Count(counts) => for_each_valid(col, |i| counts[gid(i)] += 1),
            Accumulator::SumInt { totals, any } => {
                let ColumnView::Int(v) = col.view() else {
                    return Err(CvError::exec(format!("SUM(INT) over a {} column", col.dtype())));
                };
                let mut overflow = false;
                for_each_valid(col, |i| {
                    let total = &mut totals[gid(i)];
                    match total.checked_add(v[i]) {
                        Some(t) => *total = t,
                        None => overflow = true,
                    }
                    any[gid(i)] = true;
                });
                if overflow {
                    return Err(CvError::exec("SUM(INT) overflow"));
                }
            }
            Accumulator::SumFloat { totals, any, .. } => for_each_number(col, |i, x| {
                totals[gid(i)] += x;
                any[gid(i)] = true;
            }),
            Accumulator::Best { cells, keep, args } => for_each_valid(col, |i| {
                let best = &mut cells[gid(i)];
                let better = best
                    .is_none_or(|(c, r)| cmp_cells(col, i, args[c as usize], r as usize) == *keep);
                if better {
                    *best = Some((chunk as u32, i as u32));
                }
            }),
            Accumulator::Avg { totals, counts } => for_each_number(col, |i, x| {
                totals[gid(i)] += x;
                counts[gid(i)] += 1;
            }),
        }
        Ok(())
    }

    /// The aggregate's output cells for `groups`, in that order. `&self`, so
    /// output chunks finish from shared state in parallel.
    fn finish(&self, groups: &[usize], dtype: DataType) -> Result<Column> {
        Ok(match self {
            Accumulator::Count(counts) => {
                Column::new(ColumnData::Int(groups.iter().map(|&g| counts[g]).collect()), None)
            }
            Accumulator::SumInt { totals, any } => nullable(
                ColumnData::Int(groups.iter().map(|&g| totals[g]).collect()),
                groups.iter().map(|&g| any[g]),
            ),
            Accumulator::SumFloat { totals, any, int_out } => nullable(
                if *int_out {
                    ColumnData::Int(groups.iter().map(|&g| totals[g] as i64).collect())
                } else {
                    ColumnData::Float(groups.iter().map(|&g| totals[g]).collect())
                },
                groups.iter().map(|&g| any[g]),
            ),
            Accumulator::Best { cells, args, .. } => {
                let mut b = ColumnBuilder::with_capacity(dtype, groups.len());
                for &g in groups {
                    match cells[g] {
                        Some((c, r)) => b.push(&args[c as usize].value(r as usize))?,
                        None => b.push_null(),
                    }
                }
                b.finish()
            }
            Accumulator::Avg { totals, counts } => nullable(
                ColumnData::Float(
                    groups
                        .iter()
                        .map(|&g| if counts[g] == 0 { 0.0 } else { totals[g] / counts[g] as f64 })
                        .collect(),
                ),
                groups.iter().map(|&g| counts[g] != 0),
            ),
        })
    }
}

/// A column in the builders' canonical form: NULL slots hold the type's
/// zero (the accumulators' initial value), a validity bitmap exists only if
/// some row is NULL.
fn nullable(data: ColumnData, valid: impl Iterator<Item = bool>) -> Column {
    let valid: Vec<bool> = valid.collect();
    let validity = valid.contains(&false).then(|| Bitmap::from_bools(&valid));
    Column::new(data, validity)
}

pub(super) fn hash_aggregate(
    input: &Table,
    group_by: &[(ScalarExpr, String)],
    aggs: &[AggExpr],
    schema: &SchemaRef,
    ctx: &mut ExecContext<'_>,
) -> Result<(Table, usize)> {
    let det = group_by.iter().all(|(e, _)| e.is_deterministic())
        && aggs.iter().all(AggExpr::is_deterministic);
    let chunk_size = if det { ctx.chunk_size } else { usize::MAX };
    let rows = input.num_rows();
    if rows >= u32::MAX as usize {
        return Err(CvError::exec(format!("aggregate of {rows} rows: group ids are 32-bit")));
    }
    let ranges = chunk_ranges(rows, chunk_size);

    let eval_chunk = |t: &Table, ec: &mut EvalCtx| -> Result<(Vec<Column>, Vec<Option<Column>>)> {
        let keys: Result<Vec<_>> = group_by.iter().map(|(e, _)| eval(e, t, ec)).collect();
        let args: Result<Vec<Option<_>>> =
            aggs.iter().map(|a| a.arg.as_ref().map(|e| eval(e, t, ec)).transpose()).collect();
        Ok((keys?, args?))
    };
    let (keys_by_chunk, args_by_chunk): (Vec<Vec<Column>>, Vec<Vec<Option<Column>>>) =
        map_chunks(input, ctx, det, &eval_chunk)?.into_iter().unzip();
    // Per key and per aggregate, the column of every chunk.
    let key_chunks: Vec<Vec<&Column>> =
        (0..group_by.len()).map(|k| keys_by_chunk.iter().map(|cols| &cols[k]).collect()).collect();
    let args: Vec<Option<Vec<&Column>>> = (0..aggs.len())
        .map(|i| args_by_chunk.iter().map(|chunk| chunk[i].as_ref()).collect())
        .collect();

    // Pass one — group ids: the code columns folded left to right. `first`
    // names each group by the input row it was first seen at. A global
    // aggregate has one group, over empty input too.
    let mut gids = vec![0u32; rows];
    let mut first = vec![0usize];
    for chunks in &key_chunks {
        let codes = codes::encode(chunks, rows, Class::Group);
        let folded = codes::pair_ids(&gids, first.len(), &codes);
        (gids, first) = (folded.ids, folded.first);
    }
    let groups = first.len();

    // Pass two — one aggregate at a time over every chunk. SUM over an INT
    // input produces INT; detect from the output schema.
    let out_dtype = |i: usize| schema.field(group_by.len() + i).dtype;
    let mut accs = Vec::with_capacity(aggs.len());
    for (i, agg) in aggs.iter().enumerate() {
        let int_out = out_dtype(i) == DataType::Int;
        let args = args[i].as_deref();
        accs.push(Accumulator::over(agg.func, int_out, &gids, groups, &ranges, args)?);
    }

    // Each group's key cells, boxed from the row it was first seen at —
    // through the row ids where the column is a gather nobody has read, so
    // naming the groups does not gather it either.
    let first_cells: Vec<(usize, usize)> = first
        .iter()
        .map(|&row| {
            let chunk = ranges.partition_point(|&(off, _)| off <= row) - 1;
            (chunk, row - ranges[chunk].0)
        })
        .collect();
    let mut group_keys: Vec<Column> = Vec::with_capacity(group_by.len());
    for chunks in &key_chunks {
        let mut b = ColumnBuilder::with_capacity(chunks[0].dtype(), groups);
        for &(chunk, row) in &first_cells {
            b.push(&chunks[chunk].value(row))?;
        }
        group_keys.push(b.finish());
    }

    // Canonical output order: group ids by their key cells ascending (NULLs
    // first), through the one row-ordering function `Table::sort_by` uses.
    // First-encounter order is an artifact of input row order; sorting makes
    // aggregate output a pure function of the input *multiset*, so an
    // incrementally maintained aggregate (cv-ivm) emitted from group state is
    // byte-identical to inline execution. Distinct groups never tie, so the
    // order is total.
    let key_order: Vec<(&Column, bool)> = group_keys.iter().map(|key| (key, true)).collect();
    let order = cv_data::sortkey::order_rows(&key_order, groups, groups)?;

    // Final merge streams chunk-at-a-time: each output chunk takes its
    // slice of the key cells and reads out its accumulators independently,
    // then chunk-order reassembly normalizes — no monolithic
    // materialize-then-sort. Every column is in the canonical validity form
    // after that, so output bytes are independent of the emit fan-out.
    let emit = |off: usize, len: usize| -> Result<Table> {
        let groups = &order[off..off + len];
        let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
        columns.extend(group_keys.iter().map(|key| key.take(groups).compact()));
        for (i, acc) in accs.iter().enumerate() {
            columns.push(acc.finish(groups, out_dtype(i))?);
        }
        Table::new(schema.clone(), columns)
    };
    let out_ranges = chunk_ranges(order.len(), chunk_size);
    let out_chunks: Vec<Table> = if out_ranges.len() == 1 {
        vec![emit(out_ranges[0].0, out_ranges[0].1)?]
    } else {
        morsel::run_indexed(ctx.runner.as_ref(), out_ranges.len(), &|i| {
            let (off, len) = out_ranges[i];
            emit(off, len)
        })?
    };
    let out = Table::from_chunks(schema.clone(), &out_chunks)?;
    Ok((out, ranges.len() + out_ranges.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_data::value::Value;

    #[test]
    fn cmp_cells_matches_value_total_cmp() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Float(3.5),
            Value::Str("s".into()),
            Value::Date(9),
        ];
        // Compare every pair across two single-type columns via a shared
        // mixed ordering check (cross-dtype ranks line up with total_cmp).
        for x in &vals {
            for y in &vals {
                let cx = Column::from_values(
                    x.dtype().unwrap_or(DataType::Int),
                    std::slice::from_ref(x),
                )
                .unwrap();
                let cy = Column::from_values(
                    y.dtype().unwrap_or(DataType::Int),
                    std::slice::from_ref(y),
                )
                .unwrap();
                assert_eq!(cmp_cells(&cx, 0, &cy, 0), x.total_cmp(y), "{x} vs {y}");
            }
        }
    }
}
