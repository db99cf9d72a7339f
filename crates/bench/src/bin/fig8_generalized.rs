//! Figure 8 — opportunities for more generalized views.
//!
//! X-axis: subexpressions that join the same sets of inputs; Y-axis: their
//! frequency. The paper finds "lots of generalized subexpressions with
//! frequencies on the order of 10s to 100s" — reuse headroom beyond exact
//! signature matching. We also quantify the headroom: how many *distinct*
//! signatures each join set carries (merging them into one generalized view
//! is §5.3's proposal; `ablation_containment` shows the prover answering a
//! query family from one view).

use cv_bench::scenario;
use cv_common::json::json;
use cv_workload::run_workload;

fn main() {
    let (workload, baseline, _) = scenario(30);
    let out = run_workload(&workload, &baseline).expect("baseline run");

    let groups = out.repo.join_set_groups();
    println!("\n=== Figure 8: subexpressions joining the same input sets ===");
    println!("  {:<44} {:>10} {:>12}", "join set", "distinct", "frequency");
    for g in groups.iter().take(20) {
        println!(
            "  {:<44} {:>10} {:>12}",
            g.datasets.join(" ⋈ "),
            g.distinct_subexpressions,
            g.occurrences
        );
    }
    let merge_candidates = groups.iter().filter(|g| g.distinct_subexpressions >= 2).count();
    println!("\n  join sets with ≥2 distinct subexpressions (mergeable): {merge_candidates}");
    println!("  (each such set could be covered by ONE generalized view +");
    println!("   per-query compensating filters, paper §5.3)");
    println!("\nPaper reference: many generalized subexpressions with");
    println!("frequencies on the order of 10s to 100s.");

    assert!(
        groups.iter().any(|g| g.occurrences >= 10),
        "expected join sets with double-digit frequency"
    );

    cv_bench::write_json(
        "fig8_generalized",
        &groups
            .iter()
            .map(|g| {
                json!({
                    "join_set": g.datasets.clone(),
                    "distinct_subexpressions": g.distinct_subexpressions,
                    "frequency": g.occurrences,
                })
            })
            .collect::<Vec<_>>(),
    );
}
