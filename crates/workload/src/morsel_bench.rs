//! Morsel-scaling benchmark: the chunks of **one** heavy query fanned
//! across the service work-stealing pool at increasing worker counts.
//!
//! This is the intra-query half of the parallelism story (the service
//! driver's worker scaling is the inter-job half): a single
//! filter→join→aggregate pipeline over a synthetic fact table is executed
//! with a [`PoolMorselRunner`] at each requested worker count, and the
//! per-job digest is checked against a monolithic (single-chunk, serial)
//! reference. The digests must be identical at every point — the curve is
//! allowed to move wall time only.

use crate::steps::digest_table;
use cv_common::json::{json, Json};
use cv_common::rng::DetRng;
use cv_common::{Result, Sig128, SimTime};
use cv_data::catalog::DatasetCatalog;
use cv_data::schema::{Field, Schema};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_data::viewstore::ViewStore;
use cv_engine::cost::CostModel;
use cv_engine::exec::{execute, ExecContext};
use cv_engine::expr::{col, lit, AggExpr, AggFunc};
use cv_engine::optimizer::{AlwaysGrant, Optimizer, OptimizerConfig, ReuseContext};
use cv_engine::physical::PhysicalPlan;
use cv_engine::plan::JoinKind;
use cv_engine::plan::PlanBuilder;
use cv_engine::udo::UdoRegistry;
use cv_engine::MorselRunner;
use cv_service::PoolMorselRunner;
use std::sync::Arc;
use std::time::Instant;

/// One point on the scaling curve.
#[derive(Clone, Debug)]
pub struct MorselScalingPoint {
    pub workers: usize,
    /// Best-of-N wall seconds for one execution of the query.
    pub wall_seconds: f64,
    pub digest: Sig128,
    /// Chunks each worker stole over the timed runs (warmup excluded). An
    /// all-zero tail means those workers never found work — the diagnostic
    /// for a flat speedup curve (too few chunks to go around).
    pub steals_by_worker: Vec<u64>,
}

/// The full curve plus the monolithic reference it is held to.
#[derive(Clone, Debug)]
pub struct MorselScalingReport {
    pub rows: usize,
    pub chunk_size: usize,
    /// Chunks the probe/stream stages fan out (`ceil(rows / chunk_size)`).
    pub chunks: usize,
    /// Digest of the single-chunk serial execution — the reference every
    /// point must match.
    pub serial_digest: Sig128,
    pub points: Vec<MorselScalingPoint>,
}

impl MorselScalingReport {
    pub fn digests_agree(&self) -> bool {
        self.points.iter().all(|p| p.digest == self.serial_digest)
    }

    /// Speedup of the fastest point at `workers >= min_workers` over the
    /// 1-worker point (`None` when either end of the ratio is missing).
    pub fn speedup_at(&self, min_workers: usize) -> Option<f64> {
        let base = self.points.iter().find(|p| p.workers == 1)?.wall_seconds;
        let best = self
            .points
            .iter()
            .filter(|p| p.workers >= min_workers)
            .map(|p| p.wall_seconds)
            .fold(f64::INFINITY, f64::min);
        (base > 0.0 && best.is_finite()).then(|| base / best)
    }

    pub fn to_json(&self) -> Json {
        json!({
            "rows": self.rows as u64,
            "chunk_size": self.chunk_size as u64,
            "chunks": self.chunks as u64,
            "digests_agree": self.digests_agree(),
            "points": Json::Arr(
                self.points
                    .iter()
                    .map(|p| {
                        json!({
                            "workers": p.workers as u64,
                            "wall_seconds": p.wall_seconds,
                            "digest_matches_serial": p.digest == self.serial_digest,
                            "steals_by_worker": Json::Arr(
                                p.steals_by_worker.iter().map(|s| Json::from(*s)).collect()
                            ),
                        })
                    })
                    .collect()
            ),
        })
    }
}

const SEGS: [&str; 8] = ["asia", "emea", "amer", "apac", "latam", "anz", "mea", "nordics"];

/// Synthetic fact table: key INT, qty INT (3% null), val FLOAT, seg STR.
fn fact_table(n: usize, dim_n: usize, rng: &mut DetRng) -> Table {
    let schema = Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("qty", DataType::Int),
        Field::new("val", DataType::Float),
        Field::new("seg", DataType::Str),
    ])
    .unwrap()
    .into_ref();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let qty =
                if rng.next_f64() < 0.03 { Value::Null } else { Value::Int(rng.range_i64(0, 100)) };
            vec![
                Value::Int((i % dim_n) as i64),
                qty,
                Value::Float(rng.range_f64(0.0, 1000.0)),
                Value::Str(SEGS[rng.range_usize(0, SEGS.len())].into()),
            ]
        })
        .collect();
    Table::from_rows(schema, &rows).unwrap()
}

fn dim_table(n: usize) -> Table {
    let schema =
        Schema::new(vec![Field::new("d_key", DataType::Int), Field::new("label", DataType::Str)])
            .unwrap()
            .into_ref();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i as i64), Value::Str(SEGS[i % SEGS.len()].into())])
        .collect();
    Table::from_rows(schema, &rows).unwrap()
}

fn force_hash_joins(p: &mut PhysicalPlan) {
    if let PhysicalPlan::Join { algo, .. } = p {
        *algo = cv_engine::physical::JoinAlgo::Hash;
    }
    for c in p.children_mut() {
        force_hash_joins(c);
    }
}

/// Run the scaling benchmark: `rows`-row fact table, one heavy pipeline,
/// one execution per (worker count), best of `iters` timed runs each.
pub fn run_morsel_scaling(
    seed: u64,
    rows: usize,
    chunk_size: usize,
    worker_counts: &[usize],
    iters: usize,
) -> Result<MorselScalingReport> {
    let chunk_size = chunk_size.max(1);
    let dim_n = (rows / 64).max(8);
    let mut rng = DetRng::seed(seed);
    let mut catalog = DatasetCatalog::new();
    catalog.register("morsel_fact", fact_table(rows, dim_n, &mut rng), SimTime::EPOCH)?;
    catalog.register("morsel_dim", dim_table(dim_n), SimTime::EPOCH)?;
    let views = ViewStore::with_default_ttl();
    let udos = UdoRegistry::with_builtins();
    let model = CostModel::default();

    // Filter → hash-join probe → projection → aggregate: every stage
    // between the join build and the final merge streams chunk-at-a-time.
    let logical = PlanBuilder::scan(&catalog, "morsel_fact")?
        .filter(col("qty").gt(lit(5)))?
        .join(PlanBuilder::scan(&catalog, "morsel_dim")?, &[("key", "d_key")], JoinKind::Inner)?
        .project(vec![
            (col("val").mul(col("qty").cast(DataType::Float)), "x"),
            (col("label"), "label"),
        ])?
        .aggregate(
            vec![(col("label"), "label")],
            vec![AggExpr::new(AggFunc::Sum, col("x"), "sx"), AggExpr::count_star("n")],
        )?
        .build();
    let opt = Optimizer::new(OptimizerConfig::default());
    let stats =
        |name: &str| catalog.get_by_name(name).ok().map(|d| (d.rows() as f64, d.bytes() as f64));
    let mut physical =
        opt.optimize(&logical, &ReuseContext::empty(), &stats, &mut AlwaysGrant)?.physical;
    force_hash_joins(&mut physical);

    let run = |chunk: usize, runner: Arc<dyn MorselRunner>| -> Result<(Table, f64)> {
        let started = Instant::now();
        let mut ctx =
            ExecContext::new(&catalog, &views, &udos, SimTime::EPOCH).with_chunking(chunk, runner);
        let out = execute(&physical, &mut ctx, &model)?;
        Ok((out.table, started.elapsed().as_secs_f64()))
    };

    let (serial_table, _) = run(usize::MAX, Arc::new(cv_engine::SerialRunner))?;
    let serial_digest = digest_table(&serial_table);

    let mut points = Vec::with_capacity(worker_counts.len());
    for &workers in worker_counts {
        let pool = Arc::new(PoolMorselRunner::new(workers));
        let runner: Arc<dyn MorselRunner> = pool.clone();
        let mut best = f64::INFINITY;
        let mut digest = serial_digest;
        // Warmup once, then keep the fastest of `iters` timed runs. Steal
        // attribution covers only the timed runs.
        let _ = run(chunk_size, runner.clone())?;
        pool.reset_steal_counts();
        for _ in 0..iters.max(1) {
            let (table, wall) = run(chunk_size, runner.clone())?;
            digest = digest_table(&table);
            best = best.min(wall);
        }
        points.push(MorselScalingPoint {
            workers,
            wall_seconds: best,
            digest,
            steals_by_worker: pool.steal_counts(),
        });
    }

    Ok(MorselScalingReport {
        rows,
        chunk_size,
        chunks: rows.div_ceil(chunk_size),
        serial_digest,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_worker_count_matches_the_serial_digest() {
        let report = run_morsel_scaling(42, 4_000, 256, &[1, 2, 4], 1).unwrap();
        assert!(report.digests_agree(), "morsel scheduling changed results");
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.chunks, 16);
        assert!(report.speedup_at(2).is_some());
        for p in &report.points {
            assert_eq!(p.steals_by_worker.len(), p.workers, "one steal counter per worker");
        }
        let j = report.to_json();
        assert_eq!(j.get("digests_agree").and_then(Json::as_bool), Some(true));
        let first = j.get("points").and_then(Json::as_arr).and_then(|a| a.first()).unwrap();
        assert!(first.get("steals_by_worker").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn tiny_chunks_and_huge_chunks_agree() {
        let a = run_morsel_scaling(7, 1_000, 3, &[2], 1).unwrap();
        let b = run_morsel_scaling(7, 1_000, usize::MAX, &[2], 1).unwrap();
        assert_eq!(a.serial_digest, b.serial_digest);
        assert!(a.digests_agree() && b.digests_agree());
        assert_eq!(b.chunks, 1);
    }
}
