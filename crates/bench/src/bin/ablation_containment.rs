//! Ablation — generalized reuse via containment (paper §5.3).
//!
//! Core CloudViews matches exact signatures only. This experiment measures
//! the uplift of the extensions crate's containment rewriting on a family
//! of range queries over one shared base: N queries `qty > k_i` with
//! varying thresholds share zero exact signatures, but ONE merged view
//! (`qty > min(k_i)`) covers them all with compensating filters.

use cv_common::ids::{JobId, VcId};
use cv_common::json::json;
use cv_common::SimTime;
use cv_data::schema::{Field, Schema};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_engine::engine::QueryEngine;
use cv_engine::expr::{col, lit};
use cv_engine::optimizer::ReuseContext;
use cv_engine::plan::PlanBuilder;
use cv_engine::signature::{plan_signature, SigMode};
use cv_extensions::generalized::{GeneralizedView, GeneralizedViewCatalog};

fn main() {
    // Base data: one large shared table.
    let mut engine = QueryEngine::new();
    let schema = Schema::new(vec![
        Field::new("cust", DataType::Int),
        Field::new("qty", DataType::Int),
        Field::new("price", DataType::Float),
    ])
    .unwrap()
    .into_ref();
    let rows: Vec<Vec<Value>> = (0..40_000)
        .map(|i| {
            vec![Value::Int(i % 500), Value::Int(i % 100), Value::Float((i % 37) as f64 + 0.5)]
        })
        .collect();
    engine
        .catalog
        .register("big_sales", Table::from_rows(schema, &rows).unwrap(), SimTime::EPOCH)
        .unwrap();

    // A family of range queries: qty > k for k in {60, 65, ..., 95}.
    let thresholds: Vec<i64> = (60..100).step_by(5).collect();
    let queries: Vec<_> = thresholds
        .iter()
        .map(|&k| {
            PlanBuilder::scan(&engine.catalog, "big_sales")
                .unwrap()
                .filter(col("qty").gt(lit(k)))
                .unwrap()
                .build()
        })
        .collect();

    // Exact matching: distinct strict signatures → zero cross-query reuse.
    let cfg = engine.optimizer.cfg.sig.clone();
    let sigs: cv_common::HashSet<_> =
        queries.iter().map(|q| plan_signature(q, &cfg, SigMode::Strict).unwrap()).collect();
    println!("\n=== Ablation: exact-match vs containment-based reuse ===");
    println!("  query family: qty > k for k in {thresholds:?}");
    println!("  distinct strict signatures: {} (exact reuse: 0 hits)", sigs.len());

    // Generalized: materialize ONE merged view qty > 60 and rewrite.
    let widest = PlanBuilder::scan(&engine.catalog, "big_sales")
        .unwrap()
        .filter(col("qty").gt(lit(60)))
        .unwrap()
        .build();
    let view_out = engine
        .run_plan(&widest, &ReuseContext::empty(), JobId(0), VcId(0), SimTime::EPOCH)
        .unwrap();
    let base_scan = PlanBuilder::scan(&engine.catalog, "big_sales").unwrap().build();
    let base_sig = plan_signature(&base_scan, &cfg, SigMode::Strict).unwrap();
    let view_sig = plan_signature(&widest, &cfg, SigMode::Strict).unwrap();

    let mut catalog = GeneralizedViewCatalog::new();
    catalog.register(GeneralizedView {
        base_sig,
        predicate: col("qty").gt(lit(60)),
        view_sig,
        schema: view_out.table.schema().clone(),
        rows: view_out.table.num_rows() as u64,
        bytes: view_out.table.byte_size(),
    });

    // Seal the view so rewritten queries can execute against it.
    // (run_plan with a to_build annotation would also work; direct insert
    // keeps this experiment self-contained.)
    engine
        .views
        .insert(cv_data::viewstore::MaterializedView {
            strict_sig: view_sig,
            recurring_sig: view_sig,
            schema: view_out.table.schema().clone(),
            data: view_out.table.clone(),
            rows: 0,
            bytes: 0,
            created: SimTime::EPOCH,
            expires: SimTime::EPOCH,
            creator_job: JobId(0),
            vc: VcId(0),
            input_guids: vec![],
            observed_work: 0.0,
            checksum: 0, // recomputed by the store
        })
        .unwrap();

    let mut matched = 0usize;
    let mut work_plain = 0.0;
    let mut work_rewritten = 0.0;
    for (i, q) in queries.iter().enumerate() {
        // Plain execution.
        let plain = engine
            .run_plan(
                &q.clone(),
                &ReuseContext::empty(),
                JobId(100 + i as u64),
                VcId(0),
                SimTime(1.0),
            )
            .unwrap();
        work_plain += plain.metrics.total_work;
        // Containment rewrite + execution.
        let (rewritten, used) = catalog.rewrite(q, &cfg);
        if !used.is_empty() {
            matched += 1;
        }
        let rw = engine
            .run_plan(
                &rewritten,
                &ReuseContext::empty(),
                JobId(200 + i as u64),
                VcId(0),
                SimTime(1.0),
            )
            .unwrap();
        work_rewritten += rw.metrics.total_work;
        assert_eq!(
            plain.table.canonical_rows(),
            rw.table.canonical_rows(),
            "containment rewrite changed results for k = {}",
            thresholds[i]
        );
    }

    println!("  containment rewrites:        {matched} of {} queries", queries.len());
    println!("  work without generalization: {work_plain:.2}");
    println!("  work with generalization:    {work_rewritten:.2}");
    println!(
        "  additional savings unlocked: {:.1}%",
        100.0 * (work_plain - work_rewritten) / work_plain
    );
    println!("\nExpected shape: every query in the family is answered from the");
    println!("single merged view (paper §5.3: generalized views would unlock");
    println!("reuse that exact signature matching misses entirely).");

    assert_eq!(matched, queries.len());
    assert!(work_rewritten < work_plain);

    cv_bench::write_json(
        "ablation_containment",
        &json!({
            "queries": queries.len(),
            "exact_match_hits": 0,
            "containment_hits": matched,
            "work_plain": work_plain,
            "work_rewritten": work_rewritten,
        }),
    );
}
