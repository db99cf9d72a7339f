//! Ablation — semantic reuse through the containment prover (paper §5.3).
//!
//! Core CloudViews matches exact signatures only. A family of range queries
//! `qty > k` over one table shares no strict signature, yet one view,
//! `qty > 60`, contains them all. The view is offered to the optimizer as a
//! `SemanticGrant` keyed by its template signature, with the analyzer as
//! prover (and as post-optimization verifier): a query whose predicate
//! provably implies the view's is answered from the view plus a compensating
//! filter.
//!
//! Exits 1 unless k = 60 is an exact match, every other k is a proven
//! semantic match, and every result digest equals that query's no-reuse run.

use cv_analyzer::Analyzer;
use cv_common::ids::{JobId, VcId};
use cv_common::json::json;
use cv_common::SimTime;
use cv_data::schema::{Field, Schema};
use cv_data::table::Table;
use cv_data::value::{DataType, Value};
use cv_engine::engine::QueryEngine;
use cv_engine::expr::{col, lit};
use cv_engine::optimizer::{AlwaysGrant, ReuseContext, SemanticGrant, ViewMeta};
use cv_engine::plan::{LogicalPlan, PlanBuilder};
use std::sync::Arc;

const VIEW_K: i64 = 60;

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
    engine.optimizer.cfg.verify_plans = true;
    let analyzer = Arc::new(Analyzer::new(&engine.optimizer.cfg));
    engine.optimizer.set_prover(analyzer.clone());
    engine.optimizer.set_verifier(analyzer);

    // The family: qty > k for k in {60, 65, ..., 95}; the first is the view.
    let thresholds: Vec<i64> = (VIEW_K..100).step_by(5).collect();
    let queries: Vec<Arc<LogicalPlan>> = thresholds
        .iter()
        .map(|&k| {
            PlanBuilder::scan(&engine.catalog, "big_sales")
                .unwrap()
                .filter(col("qty").gt(lit(k)))
                .unwrap()
                .build()
        })
        .collect();

    // Build the view `qty > 60` and offer it both ways: exactly, under its
    // strict signature, and semantically, under its template signature.
    let view = &queries[0];
    let signed = engine.sign(view).unwrap();
    let root = signed.subexpr(&signed.plan).expect("the view plan is signable").clone();
    let mut build = ReuseContext::empty();
    build.to_build.insert(root.strict);
    let built = engine.run_plan(view, &build, JobId(0), VcId(0), SimTime::EPOCH).unwrap();
    assert_eq!(built.sealed_views, 1, "the view build must seal exactly one view");
    let mv = engine.views.peek(root.strict, SimTime::EPOCH).unwrap();
    let meta = ViewMeta::hot(mv.rows as u64, mv.bytes);
    let mut reuse = ReuseContext::empty();
    reuse.available.insert(root.strict, meta);
    reuse
        .semantic
        .insert(root.strict, SemanticGrant { plan: root.plan, meta, template: root.template });

    println!("\n=== Ablation: exact-match vs prover-certified semantic reuse ===");
    println!("  query family: qty > k for k in {thresholds:?}; view: qty > {VIEW_K}");
    println!(
        "  {:>4} {:>10} {:>12} {:>12} {:>8}",
        "k", "match", "work plain", "work reuse", "digest"
    );
    let (mut exact, mut semantic, mut equal) = (0, 0, 0);
    let (mut work_plain, mut work_reused) = (0.0, 0.0);
    let mut violations = Vec::new();
    for (&k, query) in thresholds.iter().zip(&queries) {
        let run = |reuse: &ReuseContext| {
            let compiled = engine.optimize(query, reuse, &mut AlwaysGrant).unwrap().outcome;
            (engine.execute(&compiled.physical, SimTime(1.0)).unwrap(), compiled)
        };
        let (plain, _) = run(&ReuseContext::empty());
        let (reused, compiled) = run(&reuse);
        work_plain += plain.metrics.total_work;
        work_reused += reused.metrics.total_work;

        let only_the_view = compiled.matched_views == [root.strict];
        let kind = match compiled.compensated_views.as_slice() {
            [] if only_the_view => "exact",
            [(v, _)] if only_the_view && *v == root.strict => "semantic",
            _ => "none",
        };
        let want = if k == VIEW_K { "exact" } else { "semantic" };
        exact += usize::from(kind == "exact");
        semantic += usize::from(kind == "semantic");
        if kind != want {
            violations.push(format!("k = {k}: {kind} match, expected {want}"));
        }
        let same = cv_data::content_digest("result-digest", &plain.table)
            == cv_data::content_digest("result-digest", &reused.table);
        equal += usize::from(same);
        if !same {
            violations.push(format!("k = {k}: result digest differs from the no-reuse run"));
        }
        println!(
            "  {k:>4} {kind:>10} {:>12.2} {:>12.2} {:>8}",
            plain.metrics.total_work,
            reused.metrics.total_work,
            if same { "equal" } else { "DIFFERS" }
        );
    }

    println!("\n  exact matches:     {exact} of {}", thresholds.len());
    println!("  semantic matches:  {semantic} of {} (proven by the analyzer)", thresholds.len());
    println!("  digests equal:     {equal} of {}", thresholds.len());
    println!("  work without reuse: {work_plain:.2}");
    println!("  work with reuse:    {work_reused:.2}");
    println!("  saved:              {:.1}%", 100.0 * (work_plain - work_reused) / work_plain);
    println!("\nExpected shape: the view's own query matches exactly, every narrower");
    println!("query is a certified semantic match (paper §5.3: reuse that exact");
    println!("signature matching misses entirely), and no result moves.");

    cv_bench::write_json(
        "ablation_containment",
        &json!({
            "queries": thresholds.len(),
            "exact_match_hits": exact,
            "semantic_hits": semantic,
            "digests_equal": equal,
            "work_plain": work_plain,
            "work_reused": work_reused,
        }),
    );

    if !violations.is_empty() {
        eprintln!("ablation_containment: {}", violations.join("; "));
        std::process::exit(1);
    }
}
