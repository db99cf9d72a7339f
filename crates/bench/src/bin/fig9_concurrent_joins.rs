//! Figure 9 — concurrently executing joins on a cluster in a single day.
//!
//! Histogram of how often identical joins (same recurring signature)
//! execute with overlapping time intervals, broken down by join algorithm
//! (merge / loop / hash). These are the reuse opportunities CloudViews'
//! materialize-then-reuse model cannot capture (§5.4) — they need pipelined
//! sharing instead.

use cv_common::json::json;
use cv_workload::{generate_workload, run_workload, DriverConfig, WorkloadConfig};

fn main() {
    // Fig. 9 is about a *busy* cluster: the paper's production day runs
    // thousands of jobs concurrently. We emulate that regime with a
    // pure-burst workload — every pipeline fires at the period start
    // (burst_fraction = 1.0), so same-slot jobs across pipelines execute
    // simultaneously on their VCs.
    let workload = generate_workload(WorkloadConfig {
        n_analytics: 96,
        burst_fraction: 1.0,
        ..WorkloadConfig::default()
    });
    let baseline = DriverConfig::baseline(14);
    let out = run_workload(&workload, &baseline).expect("baseline run");

    let hist = out.repo.concurrent_join_histogram(out.ledger.records());
    println!("\n=== Figure 9: concurrently executing joins (single-day groups) ===");
    println!("  {:<12} {:>14} {:>12}", "algorithm", "concurrency", "frequency");
    for b in &hist {
        println!("  {:<12} {:>14} {:>12}", b.algo, b.concurrency, b.frequency);
    }
    let total: u64 = hist.iter().map(|b| b.frequency).sum();
    println!("\n  total concurrent join groups observed: {total}");

    let bound = out.repo.pipelining_savings_bound(out.ledger.records());
    let total_work: f64 = out
        .ledger
        .records()
        .iter()
        .map(|r| r.result.processing_seconds + r.result.bonus_seconds)
        .sum();
    println!(
        "  pipelined-sharing savings bound: {bound:.0} work units ({:.1}% of total)",
        100.0 * bound / total_work.max(1e-9)
    );
    println!("\nPaper reference: thousands of concurrent join opportunities per");
    println!("day; join instances concurrent hundreds to thousands of times.");

    assert!(total > 0, "the burst-submitting pipelines should produce concurrent joins");

    cv_bench::write_json(
        "fig9_concurrent_joins",
        &json!({
            "histogram": hist
                .iter()
                .map(|b| json!({
                    "algo": b.algo.as_str(),
                    "concurrency": b.concurrency,
                    "frequency": b.frequency,
                }))
                .collect::<Vec<_>>(),
            "pipelining_savings_bound": bound,
        }),
    );
}
