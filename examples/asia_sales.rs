//! The paper's Figure 4 scenario: three analysts, one market segment.
//!
//! Three analysts ask different questions over the same shared datasets
//! (Sales, Customer, Part), all about the Asia segment. Their queries look
//! unrelated as SQL, but their plans share large subexpressions — and
//! CloudViews discovers and exploits that automatically. This example
//! prints the before/after plans exactly like the paper's Fig. 4a/4b.
//!
//!     cargo run --example asia_sales

use cloudviews::prelude::*;
use cv_data::schema::{Field, Schema};

const Q_AVG_SALES: &str = "SELECT c_id, AVG(price * quantity) AS avg_sales \
    FROM Sales JOIN Customer ON s_cust = c_id \
    WHERE mkt_segment = 'asia' GROUP BY c_id";

const Q_AVG_DISCOUNT: &str = "SELECT brand, AVG(discount) AS avg_discount \
    FROM Sales JOIN Part ON s_part = p_id JOIN Customer ON s_cust = c_id \
    WHERE mkt_segment = 'asia' GROUP BY brand";

const Q_TOTAL_QTY: &str = "SELECT part_type, SUM(quantity) AS total_qty \
    FROM Sales JOIN Part ON s_part = p_id JOIN Customer ON s_cust = c_id \
    WHERE mkt_segment = 'asia' GROUP BY part_type";

fn main() -> Result<()> {
    let mut engine = QueryEngine::new();
    load_retail(&mut engine)?;

    let queries = [
        ("Average sales per customer in Asia", Q_AVG_SALES),
        ("Average discount per part brand in Asia", Q_AVG_DISCOUNT),
        ("Total quantity sold per part type in Asia", Q_TOTAL_QTY),
    ];

    // ---- Fig. 4a: plans with common computations -----------------------
    println!("================ Figure 4a: plans as written ================");
    let mut all_subs = Vec::new();
    for (title, sql) in &queries {
        let plan = engine.compile_sql(sql, &Params::none())?;
        let subs = engine.subexpressions(&plan)?;
        println!(
            "\n--- {title} ---\n{}",
            subs.iter().find(|s| s.is_root).unwrap().plan.display_tree()
        );
        all_subs.push(subs);
    }

    // Workload analysis: subexpressions shared by ≥2 of the three queries.
    let mut counts: cv_common::HashMap<Sig128, usize> = Default::default();
    for subs in &all_subs {
        for s in subs {
            if s.kind != "Scan" {
                *counts.entry(s.strict).or_insert(0) += 1;
            }
        }
    }
    // Pick maximal shared subexpressions (not nested inside a bigger one).
    let mut shared: Vec<_> = all_subs
        .iter()
        .flatten()
        .filter(|s| counts.get(&s.strict).copied().unwrap_or(0) >= 2)
        .collect();
    shared.sort_by_key(|s| std::cmp::Reverse(s.node_count));
    let mut selected: Vec<Sig128> = Vec::new();
    let mut covered: cv_common::HashSet<Sig128> = Default::default();
    for s in shared {
        if covered.contains(&s.strict) {
            continue;
        }
        if !selected.contains(&s.strict) {
            selected.push(s.strict);
            // Everything nested inside is covered.
            for sub in engine.subexpressions(&s.plan)? {
                covered.insert(sub.strict);
            }
            covered.remove(&s.strict);
        }
    }
    println!(
        "\nworkload analysis selected {} common computation(s) to materialize",
        selected.len()
    );

    // ---- Fig. 4b: modified plans with computation reuse ----------------
    println!("\n================ Figure 4b: plans with CloudViews ================");
    let mut reuse = ReuseContext::empty();
    reuse.to_build.extend(selected.iter().copied());
    let mut results_with = Vec::new();
    let mut total_with = 0.0;
    for (i, (title, sql)) in queries.iter().enumerate() {
        // Refresh annotations: views sealed by earlier analysts are now
        // available (the first query builds, the rest reuse).
        for sig in &selected {
            if let Some(v) = engine.views.peek(*sig, SimTime::EPOCH) {
                reuse
                    .available
                    .insert(*sig, cv_engine::optimizer::ViewMeta::hot(v.rows as u64, v.bytes));
                reuse.to_build.remove(sig);
            }
        }
        let out = engine.run_sql(
            sql,
            &Params::none(),
            &reuse,
            JobId(i as u64 + 1),
            VcId(0),
            SimTime::EPOCH,
        )?;
        println!(
            "\n--- {title} ---  (built {}, reused {})\n{}",
            out.built_views.len(),
            out.matched_views.len(),
            out.physical.display_tree()
        );
        total_with += out.metrics.total_work;
        results_with.push(out.table);
    }

    // ---- correctness + savings ----------------------------------------
    let mut engine2 = QueryEngine::new();
    load_retail(&mut engine2)?;
    let mut total_without = 0.0;
    for (i, (_, sql)) in queries.iter().enumerate() {
        let out = engine2.run_sql(
            sql,
            &Params::none(),
            &ReuseContext::empty(),
            JobId(100 + i as u64),
            VcId(0),
            SimTime::EPOCH,
        )?;
        assert_eq!(
            out.table.canonical_rows(),
            results_with[i].canonical_rows(),
            "reuse changed the answer of query {i}"
        );
        total_without += out.metrics.total_work;
    }
    println!("\nresults identical with and without CloudViews ✓");
    println!(
        "total work: {total_with:.3} with reuse vs {total_without:.3} without ({:.0}% saved)",
        100.0 * (1.0 - total_with / total_without)
    );
    Ok(())
}

fn load_retail(engine: &mut QueryEngine) -> Result<()> {
    let sales = Schema::new(vec![
        Field::new("s_cust", DataType::Int),
        Field::new("s_part", DataType::Int),
        Field::new("price", DataType::Float),
        Field::new("quantity", DataType::Int),
        Field::new("discount", DataType::Float),
    ])?
    .into_ref();
    let srows: Vec<Vec<Value>> = (0..30_000)
        .map(|i| {
            vec![
                Value::Int(i % 800),
                Value::Int(i % 150),
                Value::Float(((i * 7) % 500) as f64 / 10.0 + 1.0),
                Value::Int(i % 9 + 1),
                Value::Float(((i * 3) % 40) as f64 / 100.0),
            ]
        })
        .collect();
    engine.catalog.register("Sales", Table::from_rows(sales, &srows)?, SimTime::EPOCH)?;

    let customer = Schema::new(vec![
        Field::new("c_id", DataType::Int),
        Field::new("mkt_segment", DataType::Str),
    ])?
    .into_ref();
    let crows: Vec<Vec<Value>> = (0..800)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Str(["asia", "emea", "amer", "oceania"][(i % 4) as usize].to_string()),
            ]
        })
        .collect();
    engine.catalog.register("Customer", Table::from_rows(customer, &crows)?, SimTime::EPOCH)?;

    let part = Schema::new(vec![
        Field::new("p_id", DataType::Int),
        Field::new("brand", DataType::Str),
        Field::new("part_type", DataType::Str),
    ])?
    .into_ref();
    let prows: Vec<Vec<Value>> = (0..150)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Str(format!("brand{}", i % 6)),
                Value::Str(format!("type{}", i % 5)),
            ]
        })
        .collect();
    engine.catalog.register("Part", Table::from_rows(part, &prows)?, SimTime::EPOCH)?;
    Ok(())
}
