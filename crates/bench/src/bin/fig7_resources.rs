//! Figure 7 — the "other non-obvious" impact of CloudViews, cumulative per
//! day over the two-month window, baseline vs enabled:
//!   (a) containers used,
//!   (b) input size read,
//!   (c) total data read (incl. intermediates),
//!   (d) queue lengths seen at submission.
//!
//! Exits 1 when the overall improvement of (a), (b) or (c) is not positive:
//! the paper reports CloudViews winning all three. Queue length is reported
//! only, as in Table 1.

use cv_bench::{improvement_pct, print_series, run_both, two_month_scenario, Series};
use cv_common::json::{json, JsonMap};

fn main() {
    let (workload, baseline, enabled) = two_month_scenario();
    let (base, on) = run_both(&workload, &baseline, &enabled);

    let base_daily = base.ledger.daily();
    let on_daily = on.ledger.daily();

    let panels: [(&str, &str, fn(&cv_cluster::metrics::DailyMetrics) -> f64); 4] = [
        ("a", "containers", |m| m.containers as f64),
        ("b", "input size (bytes)", |m| m.input_bytes as f64),
        ("c", "data read (bytes)", |m| m.data_read_bytes as f64),
        ("d", "queue lengths", |m| m.queue_length_sum as f64),
    ];

    let mut results = JsonMap::new();
    let mut improvements = Vec::new();
    for (letter, name, field) in panels {
        let b = Series::cumulative("baseline", &base_daily, field);
        let w = Series::cumulative("with CloudViews", &on_daily, field);
        print_series(&format!("Figure 7{letter}: cumulative {name}"), &[b.clone(), w.clone()], 7);
        let imp = improvement_pct(b.last(), w.last());
        println!("  -> overall improvement: {imp:.2}%");
        if letter != "d" {
            improvements.push((name, imp));
        }
        results.insert(
            name.to_string(),
            json!({
                "baseline_total": b.last(),
                "cloudviews_total": w.last(),
                "improvement_pct": imp,
            }),
        );
    }

    println!("\nPaper reference: containers -35.76%, input size -36.38%,");
    println!("data read -38.84%, queue lengths -12.87%.");

    cv_bench::write_json("fig7_resources", &results);
    cv_bench::exit_unless_improved("fig7_resources", &improvements);
}
