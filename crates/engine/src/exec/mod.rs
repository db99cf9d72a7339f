//! Single-node vectorized executor with chunked, morsel-driven pipelines.
//!
//! Executes physical plans over the in-memory catalog, producing the result
//! table plus the runtime telemetry the rest of the system feeds on:
//!
//! * per-operator **work units** (cost-model formulas charged on *actual*
//!   row/byte counts) — the cluster simulator turns these into
//!   container-seconds;
//! * **input bytes** (paper Fig. 7b) and **total data read** including
//!   intermediates (Fig. 7c);
//! * executed **join-algorithm counts** (Fig. 9);
//! * **pending views** captured by spool operators, to be sealed by the job
//!   manager (early sealing happens in the cluster layer). A spool hands its
//!   view over whole; a consumer reads it from the store once it is sealed,
//!   never from the builder's execution.
//!
//! # Chunked execution
//!
//! Streamable operators — filter, project, and both the evaluation phase and
//! the final merge emission of hash aggregation — process their input as a sequence of fixed-size
//! chunks ([`cv_data::chunk::DEFAULT_CHUNK_SIZE`] rows) and fan the chunks
//! out through the context's [`MorselRunner`], so a single heavy job
//! spreads across the service's worker pool. A filter's per-chunk work is a
//! *selection* — the surviving row ids ([`crate::expr::eval::select`]) —
//! gathered once from the unsliced input; a projection chunks only what it
//! computes and hands on, uncopied, the columns it merely names. A chunk is a *window* over
//! the input's column buffers ([`Table::slice`]): cutting one copies no
//! row, so an operator pays only for the columns it reads. A gather is
//! *deferred* the same way ([`cv_data::column::Column::take`]): a filter's,
//! a sort's or a join's output column is copied when some operator above
//! reads it, once, and never if none does. Whatever leaves the query — the
//! result and a spooled view — is compacted first
//! ([`Table::compact`]), so no window and no deferred column outlives the
//! query that made it. Pipeline breakers — sorts, joins (one kernel under
//! every label; a Hash label is still charged per morsel), unions, UDOs,
//! spools, aggregate accumulation — materialize via [`Table::from_chunks`], and every execution builds its
//! own.
//!
//! A limit is not chunked: it is a window over its input's first rows. Over
//! a sort it also tells the sort how many rows it reads, and the sort orders
//! only those (top-N). The sort is still accounted as the full sort — its
//! profile, its obs span and every byte the simulator is charged describe
//! every input row ordered — so the limit changes wall time and nothing else.
//!
//! Two invariants keep results *byte-identical* at every chunk size and
//! worker count:
//!
//! * operator outputs are **normalized** (all-true validity bitmaps
//!   dropped) at chunk-reassembly boundaries, so buffer representation
//!   never depends on how the row stream was cut;
//! * chains containing nondeterministic functions (`RANDOM()`,
//!   `NEW_GUID()`) are **never chunked**: they evaluate whole, in row
//!   order, against the shared [`EvalCtx`] counter, reproducing the
//!   monolithic sequence exactly.

mod aggregate;
mod join;
pub mod morsel;
mod sort;

use crate::cost::CostModel;
use crate::expr::eval::{eval, select, EvalCtx};
use crate::expr::ScalarExpr;
use crate::obs::ObsSink;
use crate::physical::{JoinAlgo, JoinAlgoCounts, PhysicalPlan};
use crate::udo::UdoRegistry;
use aggregate::hash_aggregate;
use cv_common::hash::Sig128;
use cv_common::ids::{JobId, VcId, VersionGuid};
use cv_common::{CvError, Result, SimTime};
use cv_data::catalog::DatasetCatalog;
use cv_data::chunk::chunk_ranges;
use cv_data::column::Column;
use cv_data::schema::SchemaRef;
use cv_data::table::Table;
use cv_data::viewstore::{MaterializedView, ViewSource};
use join::{equi_join, restore_swapped_columns};
pub use morsel::{MorselRunner, SerialRunner};
use std::sync::Arc;

/// Execution context: read access to storage plus the evaluation state.
///
/// Views come in through the [`ViewSource`] trait object so the same
/// executor runs against a plain `ViewStore`, the service layer's sharded
/// store, or a pipelining wrapper over in-flight materializations.
pub struct ExecContext<'a> {
    pub catalog: &'a DatasetCatalog,
    pub views: &'a dyn ViewSource,
    pub udos: &'a UdoRegistry,
    pub now: SimTime,
    pub eval: EvalCtx,
    /// Rows per morsel for streamable operators.
    pub chunk_size: usize,
    /// Fans per-chunk work across workers; [`SerialRunner`] by default.
    pub runner: Arc<dyn MorselRunner>,
    /// Per-operator observability hooks; `None` keeps the hot path free of
    /// timing calls entirely (a single branch per operator).
    pub obs: Option<&'a dyn ObsSink>,
}

impl<'a> ExecContext<'a> {
    pub fn new(
        catalog: &'a DatasetCatalog,
        views: &'a dyn ViewSource,
        udos: &'a UdoRegistry,
        now: SimTime,
    ) -> ExecContext<'a> {
        let eval = EvalCtx::new((now.seconds() / 86_400.0) as i32);
        ExecContext {
            catalog,
            views,
            udos,
            now,
            eval,
            chunk_size: cv_data::chunk::DEFAULT_CHUNK_SIZE,
            runner: Arc::new(SerialRunner),
            obs: None,
        }
    }

    /// Override the morsel chunk size and runner (service layer plugs in
    /// its pool-backed runner here).
    pub fn with_chunking(
        mut self,
        chunk_size: usize,
        runner: Arc<dyn MorselRunner>,
    ) -> ExecContext<'a> {
        self.chunk_size = chunk_size.max(1);
        self.runner = runner;
        self
    }
}

/// Profile of one executed operator.
#[derive(Clone, Debug)]
pub struct OpProfile {
    pub kind: &'static str,
    pub rows_out: u64,
    pub bytes_out: u64,
    pub work: f64,
    pub partitions: usize,
    /// Set for spool operators: the view being materialized.
    pub spool_sig: Option<Sig128>,
}

/// Aggregate runtime metrics of one job execution.
#[derive(Clone, Debug, Default)]
pub struct ExecMetrics {
    /// Bytes read from base datasets (paper Fig. 7b "input size").
    pub input_bytes: u64,
    /// Bytes read from materialized views.
    pub view_bytes_read: u64,
    /// All bytes flowing into operators, incl. intermediates (Fig. 7c).
    pub data_read_bytes: u64,
    /// Bytes written by spools to the view store.
    pub bytes_written_views: u64,
    pub rows_out: u64,
    /// Total work units (≈ container-seconds at unit speed).
    pub total_work: f64,
    pub join_algos: JoinAlgoCounts,
    pub op_profiles: Vec<OpProfile>,
    /// ViewScans that degraded to recomputing their original subexpression
    /// because the view was missing, corrupt, or failed to read.
    pub fallbacks_recompute: u64,
    /// Injected storage read failures observed at ViewScans.
    pub view_read_failures: u64,
    /// Checksum mismatches (torn writes) observed at ViewScans.
    pub view_corruptions: u64,
    /// Views that expired between optimizer match and executor read.
    pub view_expiry_races: u64,
    /// View reads served cold (pages faulted in from disk rather than the
    /// store's buffer pool). Always 0 for in-memory stores.
    pub view_cold_reads: u64,
    /// Signatures to quarantine after this execution: every read-side
    /// failure lands here; the driver denylists them in the view store and
    /// the insights service.
    pub quarantined_sigs: Vec<Sig128>,
}

/// A view captured by a spool, not yet sealed into the store.
#[derive(Clone, Debug)]
pub struct PendingView {
    pub sig: Sig128,
    pub recurring_sig: Sig128,
    pub input_guids: Vec<VersionGuid>,
    pub schema: SchemaRef,
    pub data: Table,
    /// Work units the producing subtree cost — the "accurate statistics"
    /// stored with the view.
    pub production_work: f64,
    /// Work of the spool write itself (materialization overhead).
    pub write_work: f64,
}

impl PendingView {
    /// The view as the job manager hands it to a store at seal time. The
    /// store recomputes `rows`, `bytes`, `expires` (from its TTL) and
    /// `checksum` on insert.
    pub fn materialize(&self, job: JobId, vc: VcId, now: SimTime) -> MaterializedView {
        MaterializedView {
            strict_sig: self.sig,
            recurring_sig: self.recurring_sig,
            schema: self.schema.clone(),
            data: self.data.clone(),
            rows: 0,
            bytes: 0,
            created: now,
            expires: now,
            creator_job: job,
            vc,
            input_guids: self.input_guids.clone(),
            observed_work: self.production_work,
            checksum: 0,
        }
    }
}

/// Result of executing one physical plan.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    pub table: Table,
    pub metrics: ExecMetrics,
    pub pending_views: Vec<PendingView>,
}

/// Execute a physical plan.
pub fn execute(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
    model: &CostModel,
) -> Result<ExecOutcome> {
    let mut metrics = ExecMetrics::default();
    let mut pending = Vec::new();
    let out = exec_node(plan, ctx, model, &mut metrics, &mut pending, ALL)?;
    // The result leaves the query: a window (a LIMIT prefix, an
    // identity-prefix join side) must not leave with it.
    let table = out.table.compact();
    metrics.rows_out = table.num_rows() as u64;
    Ok(ExecOutcome { table, metrics, pending_views: pending })
}

/// An operator's output with its `byte_size` — O(rows) for string columns —
/// computed once: the operator's profile, its parent's `data_read_bytes`
/// and the obs sink all read this value.
struct OpOutput {
    table: Table,
    bytes: u64,
}

impl OpOutput {
    fn new(table: Table) -> OpOutput {
        let bytes = table.byte_size();
        OpOutput { table, bytes }
    }
}

fn record(
    metrics: &mut ExecMetrics,
    plan: &PhysicalPlan,
    out: OpOutput,
    work: f64,
    spool_sig: Option<Sig128>,
) -> OpOutput {
    profile(metrics, plan, out.table.num_rows(), out.bytes, work, spool_sig);
    out
}

/// Charge an operator's `work` and record its profile: `rows` and `bytes`
/// out.
fn profile(
    metrics: &mut ExecMetrics,
    plan: &PhysicalPlan,
    rows: usize,
    bytes: u64,
    work: f64,
    spool_sig: Option<Sig128>,
) {
    metrics.total_work += work;
    metrics.op_profiles.push(OpProfile {
        kind: plan.kind_name(),
        rows_out: rows as u64,
        bytes_out: bytes,
        work,
        partitions: plan.partitions(),
        spool_sig,
    });
}

/// Run `f` over every morsel of the input — each a window over the
/// input's buffers, no row is copied to cut it — fanned out through the
/// context's [`MorselRunner`]; results come back in chunk order.
///
/// When `deterministic` is false — the operator's expressions contain
/// `RANDOM()`/`NEW_GUID()` — the input collapses to a single chunk
/// evaluated against the shared [`EvalCtx`], so the per-row nondeterminism
/// counter advances in exactly the monolithic order regardless of the
/// configured chunk size or worker count.
fn map_chunks<T: Send>(
    input: &Table,
    ctx: &mut ExecContext<'_>,
    deterministic: bool,
    f: &(dyn Fn(&Table, &mut EvalCtx) -> Result<T> + Sync),
) -> Result<Vec<T>> {
    let chunk_size = if deterministic { ctx.chunk_size } else { usize::MAX };
    let ranges = chunk_ranges(input.num_rows(), chunk_size);
    if ranges.len() == 1 {
        return Ok(vec![f(input, &mut ctx.eval)?]);
    }
    let base_eval = ctx.eval.clone();
    morsel::run_indexed(ctx.runner.as_ref(), ranges.len(), &|i| {
        let (off, len) = ranges[i];
        f(&input.slice(off, len), &mut base_eval.clone())
    })
}

/// The `keep` of a node whose parent reads every row of it.
const ALL: usize = usize::MAX;

/// Dispatch one operator, emitting [`ObsSink`] events around the recursion
/// when a sink is installed. `op_started` fires preorder and `op_finished`
/// postorder, so a sink that maps them onto span begin/end reconstructs the
/// exact plan-tree nesting; `op_finished` reports the rows and bytes the
/// operator's profile records. With `obs: None` this is a single branch — no
/// clock reads, no virtual calls.
///
/// `keep` is how many of the node's first rows its parent reads: [`ALL`],
/// except for a Sort directly under a Limit, which returns only those.
fn exec_node(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
    model: &CostModel,
    metrics: &mut ExecMetrics,
    pending: &mut Vec<PendingView>,
    keep: usize,
) -> Result<OpOutput> {
    let Some(obs) = ctx.obs else {
        return exec_node_inner(plan, ctx, model, metrics, pending, keep);
    };
    let kind = plan.kind_name();
    obs.op_started(kind);
    let started = std::time::Instant::now();
    let result = exec_node_inner(plan, ctx, model, metrics, pending, keep);
    let ns = started.elapsed().as_nanos() as u64;
    // Every arm records its own profile last.
    match (&result, metrics.op_profiles.last()) {
        (Ok(_), Some(p)) => obs.op_finished(kind, p.rows_out, p.bytes_out, ns),
        _ => obs.op_finished(kind, 0, 0, ns),
    }
    result
}

fn exec_node_inner(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
    model: &CostModel,
    metrics: &mut ExecMetrics,
    pending: &mut Vec<PendingView>,
    keep: usize,
) -> Result<OpOutput> {
    match plan {
        PhysicalPlan::TableScan { dataset, guid, .. } => {
            let ds = ctx.catalog.get_by_name(dataset)?;
            if ds.current_guid() != *guid {
                return Err(CvError::exec(format!(
                    "stale plan: dataset `{dataset}` was regenerated since compilation"
                )));
            }
            let out = OpOutput { table: ds.data().clone(), bytes: ds.bytes() };
            metrics.input_bytes += out.bytes;
            metrics.data_read_bytes += out.bytes;
            let work = model.scan(out.bytes as f64).total();
            Ok(record(metrics, plan, out, work, None))
        }
        PhysicalPlan::ViewScan { sig, fallback, .. } => {
            use cv_data::viewstore::{ViewReadFault, ViewTemperature};
            match ctx.views.read_view_traced(*sig, ctx.now) {
                Ok(Some((table, temperature))) => {
                    let out = OpOutput::new(table);
                    let bytes = out.bytes;
                    metrics.view_bytes_read += bytes;
                    metrics.data_read_bytes += bytes;
                    let work = match temperature {
                        ViewTemperature::Hot => model.view_scan(bytes as f64).total(),
                        ViewTemperature::Cold => {
                            metrics.view_cold_reads += 1;
                            model.view_scan_cold(bytes as f64).total()
                        }
                    };
                    return Ok(record(metrics, plan, out, work, None));
                }
                // Plain miss (expired, purged, quarantined earlier): fall
                // through to the recompute fallback without quarantining.
                Ok(None) => {}
                // Read-side failure: a view must never fail the job.
                // Quarantine the signature, then degrade to recompute.
                Err(fault) => {
                    match fault {
                        ViewReadFault::ReadError => metrics.view_read_failures += 1,
                        ViewReadFault::Corrupt => metrics.view_corruptions += 1,
                        ViewReadFault::ExpiryRace => metrics.view_expiry_races += 1,
                    }
                    metrics.quarantined_sigs.push(*sig);
                }
            }
            let Some(fb) = fallback else {
                return Err(CvError::exec(format!(
                    "materialized view {} unavailable at execution and the plan \
                     carries no recompute fallback",
                    sig.short()
                )));
            };
            metrics.fallbacks_recompute += 1;
            // Execute the fallback subtree, then collapse its operator
            // profiles into this single ViewScan profile: the stage builder
            // zips profiles 1:1 against the plan tree, which still sees a
            // leaf here. The subtree's work/bytes have already accumulated
            // into the aggregate metrics (the recomputation really ran).
            let profiles_before = metrics.op_profiles.len();
            let out = exec_node(fb, ctx, model, metrics, pending, ALL)?;
            let sub_work: f64 = metrics.op_profiles.drain(profiles_before..).map(|p| p.work).sum();
            metrics.op_profiles.push(OpProfile {
                kind: plan.kind_name(),
                rows_out: out.table.num_rows() as u64,
                bytes_out: out.bytes,
                work: sub_work,
                partitions: plan.partitions(),
                spool_sig: None,
            });
            Ok(out)
        }
        PhysicalPlan::Filter { predicate, input, .. } => {
            let OpOutput { table: in_table, bytes } =
                exec_node(input, ctx, model, metrics, pending, ALL)?;
            metrics.data_read_bytes += bytes;
            // Per-chunk work is the selection alone. Survivors are gathered
            // once, straight from the unsliced input (or the input is shared
            // when every row passes) — not once per chunk and again to
            // reassemble. Normalized like any chunk reassembly.
            let selections = map_chunks(&in_table, ctx, predicate.is_deterministic(), &|t, ec| {
                Ok((t.num_rows(), select(predicate, t, None, ec)?))
            })?;
            let chunks = selections.len();
            let survivors: usize = selections.iter().map(|(_, ids)| ids.len()).sum();
            let mut selections = selections.into_iter();
            let (mut off, mut keep) = selections.next().unwrap_or_default();
            keep.reserve_exact(survivors - keep.len());
            for (rows, ids) in selections {
                keep.extend(ids.iter().map(|i| off + i));
                off += rows;
            }
            // The ids ascend, so they are rows `0..len` exactly when the last
            // one is `len - 1`: a window, no gather.
            let out = if keep.len() == in_table.num_rows() {
                in_table.clone()
            } else if keep.last().map_or(0, |last| last + 1) == keep.len() {
                in_table.slice(0, keep.len())
            } else {
                in_table.gather(keep)
            };
            let work = model.filter(in_table.num_rows() as f64).total()
                + model.morsel_dispatch(chunks as f64).total();
            Ok(record(metrics, plan, OpOutput::new(out.normalized()), work, None))
        }
        PhysicalPlan::Project { exprs, schema, input, .. } => {
            let OpOutput { table: in_table, bytes } =
                exec_node(input, ctx, model, metrics, pending, ALL)?;
            metrics.data_read_bytes += bytes;
            // A column the projection only names is the input's column — a
            // reference bump, a deferred gather stays unread — and only the
            // computed expressions are chunked. (A chunk still looks a named
            // column up, so an unknown one fails where it always did.)
            let named = |e: &ScalarExpr| matches!(e, ScalarExpr::Column(_));
            let parts = if exprs.iter().all(|(e, _)| named(e)) {
                None
            } else {
                let det = exprs.iter().all(|(e, _)| e.is_deterministic());
                Some(map_chunks(&in_table, ctx, det, &|t, ec| {
                    let mut computed = Vec::new();
                    for (e, _) in exprs {
                        let column = eval(e, t, ec)?;
                        if !named(e) {
                            computed.push(column);
                        }
                    }
                    Ok(computed)
                })?)
            };
            let chunks = match &parts {
                Some(parts) => parts.len(),
                None => chunk_ranges(in_table.num_rows(), ctx.chunk_size).len(),
            };
            let mut computed = 0;
            let mut columns = Vec::with_capacity(exprs.len());
            for (e, _) in exprs {
                columns.push(if named(e) {
                    eval(e, &in_table, &mut ctx.eval)?.normalize_validity()
                } else {
                    let of_chunks: Vec<Column> =
                        parts.iter().flatten().map(|p| p[computed].clone()).collect();
                    computed += 1;
                    Column::concat_many(&of_chunks)?
                });
            }
            let out = Table::new(schema.clone(), columns)?;
            let work = model.project(in_table.num_rows() as f64, exprs.len()).total()
                + model.morsel_dispatch(chunks as f64).total();
            Ok(record(metrics, plan, OpOutput::new(out), work, None))
        }
        PhysicalPlan::Join { algo, kind, on, left, right, swapped, .. } => {
            let OpOutput { table: l, bytes: l_bytes } =
                exec_node(left, ctx, model, metrics, pending, ALL)?;
            let OpOutput { table: r, bytes: r_bytes } =
                exec_node(right, ctx, model, metrics, pending, ALL)?;
            metrics.data_read_bytes += l_bytes + r_bytes;
            let (ln, rn) = (l.num_rows() as f64, r.num_rows() as f64);
            // One kernel under every label. The label picks the charge, the
            // morsels it stands for and the validity form — normalizing every
            // label alike would move `data_read_bytes` (DESIGN §15 *One join
            // kernel, three labels*).
            let (charge, chunks, normalize) = match algo {
                JoinAlgo::Hash => {
                    metrics.join_algos.hash += 1;
                    let chunks = chunk_ranges(l.num_rows(), ctx.chunk_size).len();
                    (model.hash_join(rn, ln), chunks, true)
                }
                JoinAlgo::Merge => {
                    metrics.join_algos.merge += 1;
                    (model.merge_join(ln, rn), 1, false)
                }
                JoinAlgo::Loop => {
                    metrics.join_algos.loop_ += 1;
                    (model.nested_loop_join(ln, rn), 1, false)
                }
            };
            let out = equi_join(&l, &r, on, *kind)?;
            let out = if normalize { out.normalized() } else { out };
            let out = restore_swapped_columns(out, *swapped, l.schema().len())?;
            let work = charge.total() + model.morsel_dispatch(chunks as f64).total();
            Ok(record(metrics, plan, OpOutput::new(out), work, None))
        }
        PhysicalPlan::HashAggregate { group_by, aggs, schema, input, .. } => {
            let OpOutput { table: in_table, bytes } =
                exec_node(input, ctx, model, metrics, pending, ALL)?;
            metrics.data_read_bytes += bytes;
            let (out, chunks) = hash_aggregate(&in_table, group_by, aggs, schema, ctx)?;
            let work = model.hash_aggregate(in_table.num_rows() as f64, aggs.len()).total()
                + model.morsel_dispatch(chunks as f64).total();
            Ok(record(metrics, plan, OpOutput::new(out), work, None))
        }
        PhysicalPlan::Sort { keys, input, .. } => {
            let OpOutput { table: in_table, bytes } =
                exec_node(input, ctx, model, metrics, pending, ALL)?;
            metrics.data_read_bytes += bytes;
            let rows = in_table.num_rows();
            let out = sort::sort_table(&in_table, keys, keep)?;
            // Profiled as the full sort whatever `keep` cut: every row out, and
            // a permutation of the input is the input's size.
            profile(metrics, plan, rows, bytes, model.sort(rows as f64).total(), None);
            let out_bytes = if out.num_rows() == rows { bytes } else { out.byte_size() };
            debug_assert_eq!(out_bytes, out.byte_size());
            Ok(OpOutput { table: out, bytes: out_bytes })
        }
        PhysicalPlan::Limit { n, input, .. } => {
            let keep = if matches!(**input, PhysicalPlan::Sort { .. }) { *n } else { ALL };
            let in_table = exec_node(input, ctx, model, metrics, pending, keep)?.table;
            // A prefix is a window over the input: O(1) here, one copy of
            // the kept rows wherever the table leaves the query.
            let out = in_table.slice(0, in_table.num_rows().min(*n)).normalized();
            Ok(record(metrics, plan, OpOutput::new(out), model.limit().total(), None))
        }
        PhysicalPlan::Union { inputs, .. } => {
            let mut iter = inputs.iter();
            let first = iter.next().ok_or_else(|| CvError::exec("empty UNION"))?;
            let mut acc = exec_node(first, ctx, model, metrics, pending, ALL)?.table;
            for i in iter {
                let t = exec_node(i, ctx, model, metrics, pending, ALL)?.table;
                acc = acc.concat(&t)?;
            }
            let out = OpOutput::new(acc);
            metrics.data_read_bytes += out.bytes;
            let work = model.union(out.table.num_rows() as f64).total();
            Ok(record(metrics, plan, out, work, None))
        }
        PhysicalPlan::Udo { spec, input, .. } => {
            let OpOutput { table: in_table, bytes } =
                exec_node(input, ctx, model, metrics, pending, ALL)?;
            metrics.data_read_bytes += bytes;
            let out = ctx.udos.apply(spec, &in_table)?;
            let work = model.udo(in_table.num_rows() as f64).total();
            Ok(record(metrics, plan, OpOutput::new(out), work, None))
        }
        PhysicalPlan::Spool { sig, recurring_sig, input_guids, input, .. } => {
            let work_before = metrics.total_work;
            let OpOutput { table, bytes } = exec_node(input, ctx, model, metrics, pending, ALL)?;
            // The view outlives this query, in the store: it owns its rows.
            let in_table = table.compact();
            let production_work = metrics.total_work - work_before;
            let write_work = model.spool(in_table.num_rows() as f64, bytes as f64).total();
            metrics.bytes_written_views += bytes;
            pending.push(PendingView {
                sig: *sig,
                recurring_sig: *recurring_sig,
                input_guids: input_guids.clone(),
                schema: in_table.schema().clone(),
                data: in_table.clone(),
                production_work,
                write_work,
            });
            Ok(record(metrics, plan, OpOutput { table: in_table, bytes }, write_work, Some(*sig)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, AggExpr, AggFunc, ScalarExpr};
    use crate::optimizer::{AlwaysGrant, Optimizer, OptimizerConfig, ReuseContext};
    use crate::plan::{JoinKind, LogicalPlan, PlanBuilder};
    use cv_data::schema::{Field, Schema};
    use cv_data::value::{DataType, Value};
    use cv_data::viewstore::ViewStore;
    use std::sync::Arc;

    fn setup() -> (DatasetCatalog, ViewStore, UdoRegistry) {
        let mut cat = DatasetCatalog::new();
        let sales = Schema::new(vec![
            Field::new("s_cust", DataType::Int),
            Field::new("price", DataType::Float),
            Field::new("qty", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![Value::Int(i % 10), Value::Float((i % 7) as f64 + 0.5), Value::Int(i % 5)]
            })
            .collect();
        cat.register("sales", Table::from_rows(sales, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let cust =
            Schema::new(vec![Field::new("c_id", DataType::Int), Field::new("seg", DataType::Str)])
                .unwrap()
                .into_ref();
        let crows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                vec![Value::Int(i), Value::Str(if i % 2 == 0 { "asia" } else { "emea" }.into())]
            })
            .collect();
        cat.register("customer", Table::from_rows(cust, &crows).unwrap(), SimTime::EPOCH).unwrap();
        (cat, ViewStore::with_default_ttl(), UdoRegistry::with_builtins())
    }

    fn try_run(
        plan: &Arc<LogicalPlan>,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
    ) -> Result<ExecOutcome> {
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let out = opt
            .optimize(&opt.sign(plan).unwrap(), &ReuseContext::empty(), &stats, &mut AlwaysGrant)
            .unwrap();
        let mut ctx = ExecContext::new(cat, views, udos, SimTime::EPOCH);
        execute(&out.physical, &mut ctx, &opt.cfg.cost)
    }

    fn run(
        plan: &Arc<LogicalPlan>,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
    ) -> ExecOutcome {
        try_run(plan, cat, views, udos).unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(2)))
            .unwrap()
            .project(vec![(col("s_cust"), "c"), (col("price").mul(lit(2.0)), "p2")])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        // qty in {3,4} → 40 of 100 rows.
        assert_eq!(out.table.num_rows(), 40);
        assert_eq!(out.table.schema().names(), vec!["c", "p2"]);
        assert!(out.metrics.input_bytes > 0);
        assert!(out.metrics.total_work > 0.0);
    }

    fn join_plan(cat: &DatasetCatalog, kind: JoinKind) -> Arc<LogicalPlan> {
        PlanBuilder::scan(cat, "sales")
            .unwrap()
            .join(PlanBuilder::scan(cat, "customer").unwrap(), &[("s_cust", "c_id")], kind)
            .unwrap()
            .build()
    }

    #[test]
    fn all_join_algorithms_agree() {
        let (cat, views, udos) = setup();
        let logical = join_plan(&cat, JoinKind::Inner);
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let opt = Optimizer::new(OptimizerConfig::default());
        let physical = opt
            .to_physical(&crate::normalize::normalize(&logical, &opt.cfg.sig).unwrap(), &stats)
            .unwrap();

        // Execute the same join with each algorithm forced.
        fn force(p: &PhysicalPlan, algo: JoinAlgo) -> PhysicalPlan {
            match p.clone() {
                PhysicalPlan::Join { kind, on, left, right, est, partitions, swapped, .. } => {
                    PhysicalPlan::Join {
                        algo,
                        kind,
                        on,
                        left: Box::new(force(&left, algo)),
                        right: Box::new(force(&right, algo)),
                        est,
                        partitions,
                        swapped,
                    }
                }
                other => other,
            }
        }
        // The reference: every sale beside the customer its key names.
        let (sales, cust) =
            (cat.get_by_name("sales").unwrap(), cat.get_by_name("customer").unwrap());
        let (sales, cust) = (sales.data(), cust.data());
        let pairs: Vec<(usize, usize)> = (0..sales.num_rows())
            .flat_map(|i| {
                let key = sales.column(0).value(i);
                (0..cust.num_rows())
                    .filter(move |&j| cust.column(0).value(j).sql_eq(&key) == Some(true))
                    .map(move |j| (i, j))
            })
            .collect();
        assert_eq!(pairs.len(), 100);
        let model = CostModel::default();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::Loop] {
            let forced = force(&physical, algo);
            let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
            let out = execute(&forced, &mut ctx, &model).unwrap();
            // In the plan's column order, which puts the sides in signature
            // order.
            let schema = out.table.schema();
            let cell = |name: &str, (i, j): (usize, usize)| match sales.column_by_name(name) {
                Some(c) => c.value(i),
                None => cust.column_by_name(name).unwrap().value(j),
            };
            let rows: Vec<Vec<Value>> = pairs
                .iter()
                .map(|&pair| schema.fields().iter().map(|f| cell(&f.name, pair)).collect())
                .collect();
            let expected = Table::from_rows(schema.clone(), &rows).unwrap();
            assert_eq!(out.table.canonical_rows(), expected.canonical_rows(), "{algo:?}");
        }
    }

    #[test]
    fn left_join_pads_nulls() {
        let (mut cat, views, udos) = setup();
        // Customer table with ids 0..10, sales referencing 0..10 → add a
        // sale with customer id 99 (no match).
        let sales = cat.get_by_name("sales").unwrap().data().clone();
        let extra = Table::from_rows(
            sales.schema().clone(),
            &[vec![Value::Int(99), Value::Float(1.0), Value::Int(1)]],
        )
        .unwrap();
        let id = cat.id_of("sales").unwrap();
        cat.bulk_update(id, sales.concat(&extra).unwrap(), SimTime::EPOCH).unwrap();

        let plan = join_plan(&cat, JoinKind::Left);
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 101);
        let seg_idx = out.table.schema().index_of("seg").unwrap();
        let nulls = (0..out.table.num_rows())
            .filter(|&i| out.table.column(seg_idx).value(i).is_null())
            .count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let (cat, views, udos) = setup();
        let plan = join_plan(&cat, JoinKind::Semi);
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.schema().names(), vec!["s_cust", "price", "qty"]);
        assert_eq!(out.table.num_rows(), 100); // every sale has a customer
    }

    #[test]
    fn aggregation_results() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .aggregate(
                vec![(col("s_cust"), "cust")],
                vec![
                    AggExpr::new(AggFunc::Sum, col("qty"), "total_qty"),
                    AggExpr::new(AggFunc::Avg, col("price"), "avg_price"),
                    AggExpr::count_star("n"),
                ],
            )
            .unwrap()
            .sort(&[("cust", true)])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 10);
        // Each customer id occurs 10 times.
        let n_idx = out.table.schema().index_of("n").unwrap();
        for i in 0..10 {
            assert_eq!(out.table.column(n_idx).value(i), Value::Int(10));
        }
        // SUM over INT stays INT.
        let tq = out.table.schema().index_of("total_qty").unwrap();
        assert_eq!(out.table.schema().field(tq).dtype, DataType::Int);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(1_000_000)))
            .unwrap()
            .aggregate(
                vec![],
                vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Sum, col("qty"), "s")],
            )
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 1);
        assert_eq!(out.table.row(0)[0], Value::Int(0));
        assert!(out.table.row(0)[1].is_null());
    }

    #[test]
    fn count_distinct() {
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .aggregate(vec![], vec![AggExpr::new(AggFunc::CountDistinct, col("s_cust"), "d")])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.row(0)[0], Value::Int(10));
    }

    #[test]
    fn sum_int_overflow_is_an_error() {
        let (mut cat, views, udos) = setup();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap().into_ref();
        let rows: Vec<Vec<Value>> = vec![vec![Value::Int(i64::MAX)], vec![Value::Int(1)]];
        cat.register("big", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let plan = PlanBuilder::scan(&cat, "big")
            .unwrap()
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, col("x"), "s")])
            .unwrap()
            .build();
        let err = try_run(&plan, &cat, &views, &udos).unwrap_err();
        assert!(err.to_string().contains("overflow"), "unexpected error: {err}");
    }

    #[test]
    fn count_distinct_uses_typed_equality() {
        let (mut cat, views, udos) = setup();
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]).unwrap().into_ref();
        let vals = [0.0_f64, -0.0, 2.5, f64::NAN, -f64::NAN];
        let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Float(v)]).collect();
        cat.register("fl", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let plan = PlanBuilder::scan(&cat, "fl")
            .unwrap()
            .aggregate(vec![], vec![AggExpr::new(AggFunc::CountDistinct, col("f"), "d")])
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        // The old string-keyed set counted -0.0 and 0.0 separately; typed
        // hashing collapses the zero signs and all NaN payloads: {0, 2.5, NaN}.
        assert_eq!(out.table.row(0)[0], Value::Int(3));
    }

    #[test]
    fn union_and_limit() {
        let (cat, views, udos) = setup();
        let a = PlanBuilder::scan(&cat, "sales").unwrap();
        let b = PlanBuilder::scan(&cat, "sales").unwrap();
        let plan = a.union(b).unwrap().limit(150).build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 150);
    }

    #[test]
    fn spool_captures_pending_view() {
        let (cat, views, udos) = setup();
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let logical = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(2)))
            .unwrap()
            .build();
        let normalized = crate::normalize::normalize(&logical, &opt.cfg.sig).unwrap();
        let sig = crate::signature::plan_signature(
            &normalized,
            &opt.cfg.sig,
            crate::signature::SigMode::Strict,
        )
        .unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(sig);
        let out =
            opt.optimize(&opt.sign(&logical).unwrap(), &reuse, &stats, &mut AlwaysGrant).unwrap();
        assert_eq!(out.built_views, vec![sig]);

        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        let exec_out = execute(&out.physical, &mut ctx, &opt.cfg.cost).unwrap();
        assert_eq!(exec_out.pending_views.len(), 1);
        let pv = &exec_out.pending_views[0];
        assert_eq!(pv.sig, sig);
        assert_eq!(pv.data.num_rows(), 40);
        assert!(pv.production_work > 0.0);
        assert!(exec_out.metrics.bytes_written_views > 0);
        // Result identical to the view contents (spool is pass-through).
        assert_eq!(exec_out.table.canonical_rows(), pv.data.canonical_rows());
    }

    #[test]
    fn viewscan_executes_from_store() {
        let (cat, mut views, udos) = setup();
        let (sig, data) = {
            let plan = PlanBuilder::scan(&cat, "sales")
                .unwrap()
                .filter(col("qty").gt(lit(2)))
                .unwrap()
                .build();
            let out = run(&plan, &cat, &views, &udos);
            (Sig128(42), out.table)
        };
        views
            .insert(cv_data::viewstore::MaterializedView {
                strict_sig: sig,
                recurring_sig: sig,
                schema: data.schema().clone(),
                data: data.clone(),
                rows: 0,
                bytes: 0,
                created: SimTime::EPOCH,
                expires: SimTime::EPOCH,
                creator_job: cv_common::ids::JobId(0),
                vc: cv_common::ids::VcId(0),
                input_guids: vec![],
                observed_work: 1.0,
                checksum: 0,
            })
            .unwrap();
        let physical = PhysicalPlan::ViewScan {
            sig,
            schema: data.schema().clone(),
            est: crate::stats::Statistics::accurate(40.0, 100.0),
            partitions: 1,
            fallback: None,
        };
        let model = CostModel::default();
        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        let out = execute(&physical, &mut ctx, &model).unwrap();
        assert_eq!(out.table.canonical_rows(), data.canonical_rows());
        assert!(out.metrics.view_bytes_read > 0);
        assert_eq!(out.metrics.input_bytes, 0);

        // Missing view → execution error.
        let physical2 = PhysicalPlan::ViewScan {
            sig: Sig128(999),
            schema: data.schema().clone(),
            est: crate::stats::Statistics::accurate(1.0, 1.0),
            partitions: 1,
            fallback: None,
        };
        let mut ctx2 = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        assert!(execute(&physical2, &mut ctx2, &model).is_err());
    }

    #[test]
    fn viewscan_falls_back_to_recompute_on_read_fault() {
        use cv_common::{FaultPlan, FaultPoint};
        let (cat, mut views, udos) = setup();
        let logical = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(2)))
            .unwrap()
            .build();
        let expected = run(&logical, &cat, &views, &udos).table;

        // Seal a view for the subexpression, then make every read fail.
        views
            .insert(cv_data::viewstore::MaterializedView {
                strict_sig: Sig128(77),
                recurring_sig: Sig128(77),
                schema: expected.schema().clone(),
                data: expected.clone(),
                rows: 0,
                bytes: 0,
                created: SimTime::EPOCH,
                expires: SimTime::EPOCH,
                creator_job: cv_common::ids::JobId(0),
                vc: cv_common::ids::VcId(0),
                input_guids: vec![],
                observed_work: 1.0,
                checksum: 0,
            })
            .unwrap();
        views.set_fault_plan(FaultPlan::seeded(1).with_rate(FaultPoint::ViewRead, 0.9));
        // Under a 0.9 read-fail rate the decision for this sig may still be
        // "serve"; scan seeds until the fault actually fires so the test is
        // deterministic and meaningful.
        let mut seed = 1u64;
        while !views
            .fault_plan()
            .fires(FaultPoint::ViewRead, &[Sig128(77).0 as u64, (Sig128(77).0 >> 64) as u64])
        {
            seed += 1;
            views.set_fault_plan(FaultPlan::seeded(seed).with_rate(FaultPoint::ViewRead, 0.9));
        }

        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let fallback = opt.to_physical(&logical, &stats).unwrap();
        let physical = PhysicalPlan::ViewScan {
            sig: Sig128(77),
            schema: expected.schema().clone(),
            est: crate::stats::Statistics::accurate(40.0, 100.0),
            partitions: 1,
            fallback: Some(Box::new(fallback)),
        };
        let model = CostModel::default();
        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH);
        let out = execute(&physical, &mut ctx, &model).unwrap();

        // Correct answer via recomputation, counted as a degradation.
        assert_eq!(out.table.canonical_rows(), expected.canonical_rows());
        assert_eq!(out.metrics.fallbacks_recompute, 1);
        assert_eq!(out.metrics.view_read_failures, 1);
        assert_eq!(out.metrics.quarantined_sigs, vec![Sig128(77)]);
        assert!(out.metrics.input_bytes > 0, "fallback re-read the base table");
        // The fallback subtree collapsed into one ViewScan profile, so the
        // profile list still zips 1:1 with the plan the stage builder sees.
        assert_eq!(out.metrics.op_profiles.len(), 1);
        assert_eq!(out.metrics.op_profiles[0].kind, "ViewScan");
        assert!(out.metrics.op_profiles[0].work > 0.0);
    }

    #[test]
    fn stale_scan_guid_rejected() {
        let (mut cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales").unwrap().build();
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let out = opt
            .optimize(&opt.sign(&plan).unwrap(), &ReuseContext::empty(), &stats, &mut AlwaysGrant)
            .unwrap();
        // Bulk-update between compile and execute.
        let id = cat.id_of("sales").unwrap();
        let data = cat.get(id).unwrap().data().clone();
        cat.bulk_update(id, data, SimTime::from_days(1.0)).unwrap();
        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::from_days(1.0));
        let err = execute(&out.physical, &mut ctx, &opt.cfg.cost).unwrap_err();
        assert!(err.to_string().contains("stale plan"));
    }

    #[test]
    fn udo_in_pipeline() {
        let (mut cat, views, udos) = setup();
        let events = Schema::new(vec![
            Field::new("user_agent", DataType::Str),
            Field::new("ip_hash", DataType::Int),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::Str(if i % 2 == 0 { "Chrome/1" } else { "Firefox/2" }.into()),
                    Value::Int(i),
                ]
            })
            .collect();
        cat.register("events", Table::from_rows(events, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let plan = PlanBuilder::scan(&cat, "events")
            .unwrap()
            .udo(crate::udo::UdoSpec::new("parse_user_agent"), &udos)
            .unwrap()
            .filter(col("browser").eq(lit("chrome")))
            .unwrap()
            .build();
        let out = run(&plan, &cat, &views, &udos);
        assert_eq!(out.table.num_rows(), 10);
    }

    #[test]
    fn metrics_data_read_exceeds_input() {
        let (cat, views, udos) = setup();
        let plan = join_plan(&cat, JoinKind::Inner);
        let out = run(&plan, &cat, &views, &udos);
        assert!(out.metrics.data_read_bytes >= out.metrics.input_bytes);
        assert_eq!(out.metrics.join_algos.total(), 1);
        assert!(!out.metrics.op_profiles.is_empty());
    }

    // ---- chunked morsel-driven execution ----

    fn optimize_physical(
        plan: &Arc<LogicalPlan>,
        cat: &DatasetCatalog,
    ) -> (PhysicalPlan, CostModel) {
        let opt = Optimizer::new(OptimizerConfig::default());
        let stats =
            |name: &str| cat.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
        let out = opt
            .optimize(&opt.sign(plan).unwrap(), &ReuseContext::empty(), &stats, &mut AlwaysGrant)
            .unwrap();
        (out.physical, opt.cfg.cost)
    }

    fn exec_chunked(
        physical: &PhysicalPlan,
        model: &CostModel,
        cat: &DatasetCatalog,
        views: &ViewStore,
        udos: &UdoRegistry,
        chunk_size: usize,
    ) -> Table {
        let mut ctx = ExecContext::new(cat, views, udos, SimTime::EPOCH)
            .with_chunking(chunk_size, Arc::new(SerialRunner));
        execute(physical, &mut ctx, model).unwrap().table
    }

    /// Byte-level equality: values, buffer contents, validity bitmaps and
    /// total byte size — strictly stronger than `canonical_rows`.
    fn assert_byte_identical(a: &Table, b: &Table, what: &str) {
        assert_eq!(a.num_rows(), b.num_rows(), "{what}: row count");
        assert_eq!(a.byte_size(), b.byte_size(), "{what}: byte size");
        for ci in 0..a.num_columns() {
            assert_eq!(
                format!("{:?}", a.column(ci).data()),
                format!("{:?}", b.column(ci).data()),
                "{what}: col {ci} buffer"
            );
            assert_eq!(
                a.column(ci).validity().map(|v| v.to_bools()),
                b.column(ci).validity().map(|v| v.to_bools()),
                "{what}: col {ci} validity"
            );
        }
    }

    /// The satellite differential property test: a DetRng-generated input
    /// (nulls included, 103 rows — not divisible by any tested chunk size)
    /// through filter → project → join → aggregate must be byte-for-byte
    /// identical at every chunk size.
    #[test]
    fn chunked_execution_is_byte_identical_at_every_chunk_size() {
        let mut rng = cv_common::DetRng::seed(42);
        let mut cat = DatasetCatalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str),
        ])
        .unwrap()
        .into_ref();
        let rows: Vec<Vec<Value>> = (0..103)
            .map(|_| {
                vec![
                    if rng.chance(0.15) { Value::Null } else { Value::Int(rng.range_i64(0, 10)) },
                    if rng.chance(0.1) { Value::Null } else { Value::Float(rng.next_f64() * 9.0) },
                    Value::Str(format!("t{}", rng.range_u64(0, 4))),
                ]
            })
            .collect();
        cat.register("facts", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let dim =
            Schema::new(vec![Field::new("d_id", DataType::Int), Field::new("w", DataType::Float)])
                .unwrap()
                .into_ref();
        let drows: Vec<Vec<Value>> =
            (0..10).map(|i| vec![Value::Int(i), Value::Float(i as f64 * 0.5)]).collect();
        cat.register("dim", Table::from_rows(dim, &drows).unwrap(), SimTime::EPOCH).unwrap();
        let views = ViewStore::with_default_ttl();
        let udos = UdoRegistry::with_builtins();

        let plan = PlanBuilder::scan(&cat, "facts")
            .unwrap()
            .filter(col("v").gt(lit(1.0)))
            .unwrap()
            .join(PlanBuilder::scan(&cat, "dim").unwrap(), &[("k", "d_id")], JoinKind::Left)
            .unwrap()
            .aggregate(
                vec![(col("tag"), "tag")],
                vec![
                    AggExpr::new(AggFunc::Sum, col("v"), "sv"),
                    AggExpr::new(AggFunc::Min, col("w"), "mw"),
                    AggExpr::count_star("n"),
                ],
            )
            .unwrap()
            .build();
        // A projection that computes one column and only names the others —
        // one of them twice — over a filter's (deferred) output.
        let named = PlanBuilder::scan(&cat, "facts")
            .unwrap()
            .filter(col("v").gt(lit(1.0)))
            .unwrap()
            .project(vec![
                (col("tag"), "tag"),
                (col("v").mul(lit(2.0)), "v2"),
                (col("tag"), "tag_again"),
                (col("k"), "k"),
            ])
            .unwrap()
            .build();
        for (what, plan) in [("pipeline", plan), ("named columns", named)] {
            let (physical, model) = optimize_physical(&plan, &cat);
            let run = |chunk_size| exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size);
            let mono = run(usize::MAX);
            assert!(mono.num_rows() > 0);
            for chunk_size in [1, 3, 7, 50, 2048] {
                assert_byte_identical(
                    &run(chunk_size),
                    &mono,
                    &format!("{what}, chunk {chunk_size}"),
                );
            }
        }
    }

    /// A predicate that wipes out entire chunks must not disturb
    /// reassembly: empty chunks concatenate away.
    #[test]
    fn fully_masked_chunks_reassemble_cleanly() {
        let (cat, views, udos) = setup();
        // qty == i % 5: rows 0..50 with qty < 100 all pass, but qty > 3
        // keeps 20 of 100 rows in bursts, leaving many chunks empty at
        // chunk size 3.
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(3)))
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX);
        assert_eq!(mono.num_rows(), 20);
        for chunk_size in [1, 3, 5, 99] {
            let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size);
            assert_byte_identical(&chunked, &mono, &format!("chunk {chunk_size}"));
        }
        // A predicate no row satisfies: every chunk comes back empty.
        let none = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(100)))
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&none, &cat);
        for chunk_size in [1, 7, usize::MAX] {
            let out = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size);
            assert_eq!(out.num_rows(), 0, "chunk {chunk_size}");
            assert_eq!(out.num_columns(), 3);
        }
    }

    /// Chunks whose join/group keys are entirely NULL pass through the join
    /// and the aggregate without producing matches or spurious groups — and
    /// stay byte-identical to monolithic execution.
    #[test]
    fn all_null_key_chunks_through_join_and_aggregate() {
        let mut cat = DatasetCatalog::new();
        let schema =
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("x", DataType::Int)])
                .unwrap()
                .into_ref();
        // Rows 4..12 (two whole chunks at size 4) carry NULL keys.
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                let key = if (4..12).contains(&i) { Value::Null } else { Value::Int(i % 3) };
                vec![key, Value::Int(i)]
            })
            .collect();
        cat.register("t", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let dim =
            Schema::new(vec![Field::new("d", DataType::Int), Field::new("lbl", DataType::Str)])
                .unwrap()
                .into_ref();
        let drows: Vec<Vec<Value>> =
            (0..3).map(|i| vec![Value::Int(i), Value::Str(format!("d{i}"))]).collect();
        cat.register("dim", Table::from_rows(dim, &drows).unwrap(), SimTime::EPOCH).unwrap();
        let views = ViewStore::with_default_ttl();
        let udos = UdoRegistry::with_builtins();

        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi] {
            let plan = PlanBuilder::scan(&cat, "t")
                .unwrap()
                .join(PlanBuilder::scan(&cat, "dim").unwrap(), &[("k", "d")], kind)
                .unwrap()
                .build();
            let (physical, model) = optimize_physical(&plan, &cat);
            let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX);
            for chunk_size in [1, 4, 6] {
                let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size);
                assert_byte_identical(&chunked, &mono, &format!("{kind:?} chunk {chunk_size}"));
            }
            // NULL keys never match: inner/semi drop them, left pads.
            match kind {
                JoinKind::Inner | JoinKind::Semi => assert_eq!(mono.num_rows(), 12),
                _ => assert_eq!(mono.num_rows(), 20),
            }
        }

        let agg = PlanBuilder::scan(&cat, "t")
            .unwrap()
            .aggregate(vec![(col("k"), "k")], vec![AggExpr::new(AggFunc::Sum, col("x"), "sx")])
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&agg, &cat);
        let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX);
        // Groups: NULL, 0, 1, 2 — all NULL keys collapse into one group.
        assert_eq!(mono.num_rows(), 4);
        for chunk_size in [1, 4, 6] {
            let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size);
            assert_byte_identical(&chunked, &mono, &format!("agg chunk {chunk_size}"));
        }
    }

    /// Nondeterministic expressions collapse to a single chunk and advance
    /// the shared per-row counter in monolithic order — the result is the
    /// same at every configured chunk size.
    #[test]
    fn nondeterministic_exprs_never_chunk() {
        let (cat, views, udos) = setup();
        let rand = ScalarExpr::Func { func: crate::expr::FuncKind::RandomNext, args: vec![] };
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .project(vec![(col("s_cust"), "c"), (rand, "r")])
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        let mono = exec_chunked(&physical, &model, &cat, &views, &udos, usize::MAX);
        for chunk_size in [1, 7, 64] {
            let chunked = exec_chunked(&physical, &model, &cat, &views, &udos, chunk_size);
            assert_byte_identical(&chunked, &mono, &format!("nd chunk {chunk_size}"));
        }
        // Sanity: the column really is nondeterministic per row.
        let r_idx = mono.schema().index_of("r").unwrap();
        let distinct: cv_common::HashSet<String> =
            (0..mono.num_rows()).map(|i| format!("{:?}", mono.column(r_idx).value(i))).collect();
        assert!(distinct.len() > 1, "RANDOM_NEXT must vary across rows");
    }

    /// Morsels on `n` threads, each taking the next task as it finishes one.
    struct Threads(usize);

    impl MorselRunner for Threads {
        fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let work = || loop {
                match next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
                    i if i < tasks => task(i),
                    _ => break,
                }
            };
            std::thread::scope(|s| (0..self.0).for_each(|_| drop(s.spawn(work))));
        }
    }

    /// `Limit n` over a `Sort` is the sort's first `n` rows byte for byte, at
    /// every chunk size on one morsel worker and on four, and the sort under
    /// it is accounted exactly as the full sort: the same profile for every
    /// operator below the limit, the same bytes read, the same work but the
    /// limit's. Under a `Spool` the sort still produces, and the view holds,
    /// every row.
    #[test]
    fn a_limit_over_a_sort_is_the_sorts_first_rows_accounted_as_the_full_sort() {
        let mut rng = cv_common::DetRng::seed(26);
        let mut cat = DatasetCatalog::new();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("tag", DataType::Str),
        ])
        .unwrap()
        .into_ref();
        let mut or_null = |v: Value| if rng.chance(0.1) { Value::Null } else { v };
        let rows: Vec<Vec<Value>> = (0..1000)
            .map(|i| {
                let v = [f64::NAN, -0.0, 0.0, 1.5, -2.5][i % 5];
                vec![
                    or_null(Value::Int(i as i64 % 9)),
                    or_null(Value::Float(v)),
                    or_null(Value::Str(format!("t{}", i % 7))),
                ]
            })
            .collect();
        let kept = rows.iter().filter(|row| matches!(row[0], Value::Int(k) if k > 0)).count();
        cat.register("facts", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH).unwrap();
        let (views, udos) = (ViewStore::with_default_ttl(), UdoRegistry::with_builtins());
        let runners: [Arc<dyn MorselRunner>; 2] = [Arc::new(SerialRunner), Arc::new(Threads(4))];
        for keys in [&[("v", false)][..], &[("tag", true), ("v", false), ("k", true)]] {
            for n in [0, 1, 7, kept - 1, kept, kept + 3] {
                let plan = PlanBuilder::scan(&cat, "facts").unwrap();
                let plan = plan.filter(col("k").gt(lit(0))).unwrap().sort(keys).unwrap();
                let (limited, model) = optimize_physical(&plan.limit(n).build(), &cat);
                let PhysicalPlan::Limit { input: sort, est, .. } = &limited else {
                    panic!("not a limit over a sort: {limited:?}")
                };
                assert!(matches!(**sort, PhysicalPlan::Sort { .. }), "{limited:?}");
                let spool = PhysicalPlan::Spool {
                    sig: Sig128(7),
                    recurring_sig: Sig128(7),
                    input_guids: Vec::new(),
                    input: sort.clone(),
                    est: *est,
                    partitions: 1,
                };
                let spooled = PhysicalPlan::Limit { n, input: Box::new(spool), est: *est };
                for (chunk_size, runner) in [1, 333, 2048, usize::MAX]
                    .iter()
                    .flat_map(|&c| runners.iter().map(move |r| (c, r)))
                {
                    let run = |plan: &PhysicalPlan| {
                        let mut ctx = ExecContext::new(&cat, &views, &udos, SimTime::EPOCH)
                            .with_chunking(chunk_size, runner.clone());
                        execute(plan, &mut ctx, &model).unwrap()
                    };
                    let (top, full) = (run(&limited), run(sort));
                    let what = format!("{keys:?} limit {n}, chunk {chunk_size}");
                    assert_eq!(full.table.num_rows(), kept, "{what}");
                    let first = full.table.slice(0, n.min(kept)).normalized().compact();
                    assert_byte_identical(&top.table, &first, &what);
                    let (t, f) = (&top.metrics, &full.metrics);
                    let below = &t.op_profiles[..f.op_profiles.len()];
                    assert_eq!(format!("{below:?}"), format!("{:?}", f.op_profiles), "{what}");
                    assert_eq!(t.data_read_bytes, f.data_read_bytes, "{what}");
                    assert_eq!(t.total_work, f.total_work + model.limit().total(), "{what}");
                    let view = &run(&spooled).pending_views[0].data;
                    assert_byte_identical(view, &full.table, &what);
                }
            }
        }
    }

    /// The morsel runner really receives one task per chunk (the tentpole's
    /// parallelism seam): a counting runner observes the fan-out.
    #[test]
    fn morsel_runner_sees_one_task_per_chunk() {
        struct CountingRunner(std::sync::atomic::AtomicUsize);
        impl MorselRunner for CountingRunner {
            fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
                self.0.fetch_add(tasks, std::sync::atomic::Ordering::Relaxed);
                for i in 0..tasks {
                    task(i);
                }
            }
        }
        let (cat, views, udos) = setup();
        let plan = PlanBuilder::scan(&cat, "sales")
            .unwrap()
            .filter(col("qty").gt(lit(0)))
            .unwrap()
            .build();
        let (physical, model) = optimize_physical(&plan, &cat);
        let runner = Arc::new(CountingRunner(std::sync::atomic::AtomicUsize::new(0)));
        let mut ctx =
            ExecContext::new(&cat, &views, &udos, SimTime::EPOCH).with_chunking(30, runner.clone());
        let out = execute(&physical, &mut ctx, &model).unwrap();
        assert_eq!(out.table.num_rows(), 80);
        // 100 rows at chunk size 30 → 4 morsels through the runner.
        assert_eq!(runner.0.load(std::sync::atomic::Ordering::Relaxed), 4);
    }
}
