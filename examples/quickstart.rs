//! Quickstart: one engine, two jobs, one reused view.
//!
//! Runs the minimal CloudViews loop by hand — compile, pick a shared
//! subexpression, let job 1 materialize it, let job 2 reuse it — and prints
//! the plans and the savings.
//!
//!     cargo run --example quickstart

use cloudviews::prelude::*;
use cv_data::schema::{Field, Schema};

fn main() -> Result<()> {
    // 1. An engine with one shared dataset.
    let mut engine = QueryEngine::new();
    let schema = Schema::new(vec![
        Field::new("user_id", DataType::Int),
        Field::new("country", DataType::Str),
        Field::new("ms_spent", DataType::Int),
    ])?
    .into_ref();
    let rows: Vec<Vec<Value>> = (0..50_000)
        .map(|i| {
            vec![
                Value::Int(i % 1_000),
                Value::Str(["jp", "de", "us", "in"][(i % 4) as usize].to_string()),
                Value::Int((i % 997) * 3),
            ]
        })
        .collect();
    engine.catalog.register("sessions", Table::from_rows(schema, &rows)?, SimTime::EPOCH)?;

    // 2. Two analysts ask different questions over the same filtered slice.
    let q1 = "SELECT user_id, SUM(ms_spent) AS total \
              FROM sessions WHERE country = 'jp' GROUP BY user_id \
              ORDER BY total DESC LIMIT 5";
    let q2 = "SELECT COUNT(*) AS sessions_jp, AVG(ms_spent) AS avg_ms \
              FROM sessions WHERE country = 'jp'";

    // 3. Workload analysis (by hand): the shared subexpression is the
    //    largest subtree whose strict signature appears in both plans.
    let p1 = engine.compile_sql(q1, &Params::none())?;
    let p2 = engine.compile_sql(q2, &Params::none())?;
    let subs1 = engine.subexpressions(&p1)?;
    let subs2 = engine.subexpressions(&p2)?;
    let sigs2: cv_common::HashSet<_> = subs2.iter().map(|s| s.strict).collect();
    let shared = subs1
        .iter()
        .filter(|s| sigs2.contains(&s.strict) && s.kind != "Scan")
        .max_by_key(|s| s.node_count)
        .expect("queries share a subexpression");
    println!("shared subexpression ({}):\n{}", shared.kind, shared.plan.display_tree());

    // 4. Job 1 runs with a build annotation: it materializes the view.
    let mut reuse = ReuseContext::empty();
    reuse.to_build.insert(shared.strict);
    let out1 = engine.run_sql(q1, &Params::none(), &reuse, JobId(1), VcId(0), SimTime::EPOCH)?;
    println!(
        "job 1 built {} view(s); physical plan:\n{}",
        out1.sealed_views,
        out1.physical.display_tree()
    );
    println!("top spenders in jp:\n{}", out1.table.pretty(5));

    // 5. Job 2 runs with a match annotation: it reuses the view.
    let view = engine.views.peek(shared.strict, SimTime::EPOCH).expect("sealed");
    let mut reuse2 = ReuseContext::empty();
    reuse2
        .available
        .insert(shared.strict, cv_engine::optimizer::ViewMeta::hot(view.rows as u64, view.bytes));
    let out2 = engine.run_sql(q2, &Params::none(), &reuse2, JobId(2), VcId(0), SimTime::EPOCH)?;
    println!(
        "job 2 physical plan (note the ViewScan, no base TableScan):\n{}",
        out2.physical.display_tree()
    );
    println!("{}", out2.table.pretty(3));

    // 6. The savings: job 2 did far less work than it would have.
    let baseline = {
        let mut fresh = QueryEngine::new();
        std::mem::swap(&mut fresh.catalog, &mut engine.catalog);
        let out = fresh.run_sql(
            q2,
            &Params::none(),
            &ReuseContext::empty(),
            JobId(3),
            VcId(0),
            SimTime::EPOCH,
        )?;
        std::mem::swap(&mut fresh.catalog, &mut engine.catalog);
        out
    };
    assert_eq!(out2.table.canonical_rows(), baseline.table.canonical_rows());
    println!(
        "work: {:.4} with reuse vs {:.4} without  ({:.0}% saved), input bytes {} vs {}",
        out2.metrics.total_work,
        baseline.metrics.total_work,
        100.0 * (1.0 - out2.metrics.total_work / baseline.metrics.total_work),
        out2.metrics.input_bytes,
        baseline.metrics.input_bytes,
    );
    Ok(())
}
