//! Hash aggregation in two typed passes.
//!
//! Group keys and aggregate arguments are evaluated chunk-at-a-time (the
//! parallel part, fanned through the morsel runner). Then, serially:
//!
//! 1. every input row gets a dense **group id** through one open-addressing
//!    table over the key hashes ([`DenseIds`]) — ids in first-seen order;
//! 2. each aggregate runs one tight loop per chunk over `(group id, typed
//!    argument slice)` into struct-of-arrays accumulators sized to the group
//!    count ([`Accumulator`]).
//!
//! An aggregate still meets the rows of a group in global row order (chunks
//! in order, rows in order within each), so order-sensitive accumulation —
//! float SUM/AVG — produces the monolithic bit pattern at every chunk size
//! and worker count.

use super::keys::{self, KeyCols};
use super::{map_chunks, morsel, ExecContext};
use crate::expr::eval::{eval, EvalCtx};
use crate::expr::{AggExpr, AggFunc, ScalarExpr};
use cv_common::hash::mix64;
use cv_common::{CvError, Result};
use cv_data::bitmap::Bitmap;
use cv_data::chunk::chunk_ranges;
use cv_data::column::{Column, ColumnBuilder, ColumnData, ColumnView};
use cv_data::schema::SchemaRef;
use cv_data::table::Table;
use cv_data::value::DataType;
use std::cmp::Ordering;

const EMPTY: u32 = u32::MAX;

/// Open-addressing index (linear probing, at most half full) from 64-bit
/// hashes to dense ids `0..len()`, handed out in insertion order. The
/// caller keeps what an id stands for and tells two entries of one hash
/// apart.
struct DenseIds {
    slots: Vec<u32>,
    /// Hash of each id: a cheap first rejection, and what growth re-inserts.
    hashes: Vec<u64>,
}

impl DenseIds {
    fn new() -> DenseIds {
        DenseIds { slots: vec![EMPTY; 16], hashes: Vec::new() }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The id whose hash is `hash` and that `same` accepts, or a new one
    /// (`== len()` before the call).
    fn find_or_insert(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let id = self.slots[at];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && same(id as usize) {
                return id as usize;
            }
            at = (at + 1) & mask;
        }
        let id = self.hashes.len();
        assert!(id < EMPTY as usize, "dense ids are 32-bit");
        self.slots[at] = id as u32;
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.slots.len() {
            self.slots = vec![EMPTY; self.slots.len() * 2];
            let mask = self.slots.len() - 1;
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut at = h as usize & mask;
                while self.slots[at] != EMPTY {
                    at = (at + 1) & mask;
                }
                self.slots[at] = id as u32;
            }
        }
        id
    }
}

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

/// One aggregate's argument column in every input chunk. MIN/MAX address
/// cells as `(chunk, row)` so the best cell is a handle, not a copied value.
struct ArgChunks<'a> {
    by_chunk: &'a [Vec<Option<Column>>],
    agg: usize,
}

impl ArgChunks<'_> {
    fn at(&self, chunk: usize) -> Option<&Column> {
        self.by_chunk[chunk][self.agg].as_ref()
    }
}

/// One aggregate's state for every group, a vector per component.
enum Accumulator {
    Count(Vec<i64>),
    /// DISTINCT over typed value hashes (the key-hash kernel's, so
    /// `Int(1)` and `Float(1.0)` are one value and `"1"` another): one flat
    /// set of `(group, value hash)` for all groups.
    Distinct {
        counts: Vec<i64>,
        index: DenseIds,
        seen: Vec<(u32, u64)>,
    },
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
    /// MIN (`keep == Less`) or MAX (`Greater`): a cell replaces the best
    /// one only when it compares strictly so, hence ties keep the first.
    Best {
        cells: Vec<Option<(u32, u32)>>,
        keep: Ordering,
    },
    Avg {
        totals: Vec<f64>,
        counts: Vec<i64>,
    },
}

impl Accumulator {
    fn new(func: AggFunc, int_out: bool, arg_dtype: Option<DataType>, groups: usize) -> Self {
        match func {
            AggFunc::Count => Accumulator::Count(vec![0; groups]),
            AggFunc::CountDistinct => Accumulator::Distinct {
                counts: vec![0; groups],
                index: DenseIds::new(),
                seen: Vec::new(),
            },
            AggFunc::Sum if int_out && arg_dtype == Some(DataType::Int) => {
                Accumulator::SumInt { totals: vec![0; groups], any: vec![false; groups] }
            }
            AggFunc::Sum => Accumulator::SumFloat {
                totals: vec![0.0; groups],
                any: vec![false; groups],
                int_out,
            },
            AggFunc::Min => Accumulator::Best { cells: vec![None; groups], keep: Ordering::Less },
            AggFunc::Max => {
                Accumulator::Best { cells: vec![None; groups], keep: Ordering::Greater }
            }
            AggFunc::Avg => Accumulator::Avg { totals: vec![0.0; groups], counts: vec![0; groups] },
        }
    }

    /// Fold one chunk in: `gids[row]` is the group of the chunk's `row`.
    fn update(&mut self, gids: &[u32], chunk: usize, args: &ArgChunks<'_>) -> Result<()> {
        let gid = |row: usize| gids[row] as usize;
        let Some(col) = args.at(chunk) else {
            // COUNT(*) has no argument: every row counts.
            if let Accumulator::Count(counts) = self {
                gids.iter().for_each(|&g| counts[g as usize] += 1);
            }
            return Ok(());
        };
        match self {
            Accumulator::Count(counts) => for_each_valid(col, |i| counts[gid(i)] += 1),
            Accumulator::Distinct { counts, index, seen } => {
                let hashes = KeyCols::new(vec![col], col.len()).group_hashes();
                for_each_valid(col, |i| {
                    let entry = (gids[i], hashes[i]);
                    let id = index
                        .find_or_insert(mix64(entry.1 ^ entry.0 as u64), |id| seen[id] == entry);
                    if id == seen.len() {
                        seen.push(entry);
                        counts[gid(i)] += 1;
                    }
                });
            }
            Accumulator::SumInt { totals, any } => {
                let v = col.ints();
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
            Accumulator::Best { cells, keep } => for_each_valid(col, |i| {
                let best = &mut cells[gid(i)];
                let better = best.is_none_or(|(c, r)| {
                    let held = args.at(c as usize).expect("best cell column");
                    keys::cmp_cells(col, i, held, r as usize) == *keep
                });
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
    fn finish(&self, groups: &[usize], args: &ArgChunks<'_>, dtype: DataType) -> Result<Column> {
        Ok(match self {
            Accumulator::Count(counts) | Accumulator::Distinct { counts, .. } => {
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
            Accumulator::Best { cells, .. } => {
                let mut b = ColumnBuilder::with_capacity(dtype, groups.len());
                for &g in groups {
                    match cells[g] {
                        Some((c, r)) => {
                            let col = args.at(c as usize).expect("best cell column");
                            b.push(&col.value(r as usize))?;
                        }
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
    let ranges = chunk_ranges(input.num_rows(), chunk_size);

    let eval_chunk = |t: &Table, ec: &mut EvalCtx| -> Result<(Vec<Column>, Vec<Option<Column>>)> {
        let keys: Result<Vec<_>> = group_by.iter().map(|(e, _)| eval(e, t, ec)).collect();
        let args: Result<Vec<Option<_>>> =
            aggs.iter().map(|a| a.arg.as_ref().map(|e| eval(e, t, ec)).transpose()).collect();
        Ok((keys?, args?))
    };
    let (keys_by_chunk, args_by_chunk): (Vec<Vec<Column>>, Vec<Vec<Option<Column>>>) =
        map_chunks(input, ctx, det, &eval_chunk)?.into_iter().unzip();

    // Pass one — group ids. A group is named by its first input cell
    // (chunk, row); key output columns are rebuilt from those cells at the
    // end, no key is boxed per row.
    let kcs: Vec<KeyCols<'_>> = keys_by_chunk
        .iter()
        .zip(&ranges)
        .map(|(cols, &(_, len))| KeyCols::new(cols.iter().collect(), len))
        .collect();
    let mut index = DenseIds::new();
    let mut first: Vec<(usize, usize)> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(input.num_rows());
    for (c, kc) in kcs.iter().enumerate() {
        for (row, &h) in kc.group_hashes().iter().enumerate() {
            let gid = index.find_or_insert(h, |g| {
                let (gc, gr) = first[g];
                kcs[gc].rows_eq_group(gr, kc, row)
            });
            if gid == first.len() {
                first.push((c, row));
            }
            gids.push(gid as u32);
        }
    }
    // Global aggregate over empty input still yields one group.
    let groups = if group_by.is_empty() { 1 } else { index.len() };

    // Pass two — one aggregate at a time over every chunk. SUM over an INT
    // input produces INT; detect from the output schema.
    let out_dtype = |i: usize| schema.field(group_by.len() + i).dtype;
    let mut accs = Vec::with_capacity(aggs.len());
    for (i, agg) in aggs.iter().enumerate() {
        let args = ArgChunks { by_chunk: &args_by_chunk, agg: i };
        let arg_dtype = args.at(0).map(Column::dtype);
        let mut acc = Accumulator::new(agg.func, out_dtype(i) == DataType::Int, arg_dtype, groups);
        for (c, &(off, len)) in ranges.iter().enumerate() {
            acc.update(&gids[off..off + len], c, &args)?;
        }
        accs.push(acc);
    }

    // Canonical output order: sort group ids by their representative key
    // cells ascending (NULLs first), the exact order `Table::sort_by` over
    // the key columns produces. First-encounter order is an artifact of
    // input row order; sorting makes aggregate output a pure function of
    // the input *multiset*, so an incrementally maintained aggregate
    // (cv-ivm) emitted from group state is byte-identical to inline
    // execution. Distinct groups never compare equal, so the order is
    // total and stability is irrelevant.
    let mut order: Vec<usize> = (0..groups).collect();
    if !group_by.is_empty() {
        order.sort_by(|&a, &b| {
            let ((ac, ar), (bc, br)) = (first[a], first[b]);
            keys_by_chunk[ac]
                .iter()
                .zip(&keys_by_chunk[bc])
                .map(|(ka, kb)| keys::cmp_cells(ka, ar, kb, br))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }

    // Final merge streams chunk-at-a-time: each output chunk rebuilds its
    // slice of key columns from representative cells and reads out its
    // accumulators independently, then chunk-order reassembly normalizes —
    // no monolithic materialize-then-sort. Every column is in the canonical
    // validity form, so output bytes are independent of which chunk a
    // representative landed in and of the emit fan-out.
    let emit = |off: usize, len: usize| -> Result<Table> {
        let groups = &order[off..off + len];
        let mut columns: Vec<Column> = Vec::with_capacity(schema.len());
        for (k, key0) in keys_by_chunk[0].iter().enumerate() {
            let mut b = ColumnBuilder::with_capacity(key0.dtype(), len);
            for &g in groups {
                let (gc, gr) = first[g];
                b.push(&keys_by_chunk[gc][k].value(gr))?;
            }
            columns.push(b.finish());
        }
        for (i, acc) in accs.iter().enumerate() {
            let args = ArgChunks { by_chunk: &args_by_chunk, agg: i };
            columns.push(acc.finish(groups, &args, out_dtype(i))?);
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
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?
    };
    let out = Table::from_chunks(schema.clone(), &out_chunks)?;
    Ok((out, ranges.len() + out_ranges.len() - 1))
}
