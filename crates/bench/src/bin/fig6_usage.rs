//! Figure 6 — usage and impact of CloudViews on production workloads.
//!
//! Four panels over the two-month window, all cumulative per day:
//!   (a) number of views built vs reused,
//!   (b) job latency, baseline vs CloudViews,
//!   (c) processing time, baseline vs CloudViews,
//!   (d) bonus processing time, baseline vs CloudViews.
//!
//! Exits 1 when the overall improvement of (b), (c) or (d) is not positive:
//! the paper reports CloudViews winning all three.

use cv_bench::{improvement_pct, print_series, run_both, two_month_scenario, Series};
use cv_common::json::{json, JsonMap};
use cv_core::insights::UsageKind;
use std::collections::BTreeMap;

fn main() {
    let (workload, baseline, enabled) = two_month_scenario();
    let (base, on) = run_both(&workload, &baseline, &enabled);

    // (a) Usage: cumulative views built / reused from the insights log,
    // one point per day (days keyed by index so labels sort correctly).
    let mut events: Vec<(u32, UsageKind)> =
        on.usage.iter().map(|u| (u.at.day().index(), u.kind)).collect();
    events.sort_by_key(|(d, _)| *d);
    let mut built_by_day: BTreeMap<u32, f64> = BTreeMap::new();
    let mut reused_by_day: BTreeMap<u32, f64> = BTreeMap::new();
    let (mut cum_built, mut cum_reused) = (0.0, 0.0);
    for (day, kind) in events {
        match kind {
            UsageKind::Built => cum_built += 1.0,
            UsageKind::Reused => cum_reused += 1.0,
        }
        built_by_day.insert(day, cum_built);
        reused_by_day.insert(day, cum_reused);
    }
    let to_series = |name: &str, map: &BTreeMap<u32, f64>| Series {
        name: name.to_string(),
        points: map.iter().map(|(d, v)| (cv_common::SimDay(*d).label(), *v)).collect(),
    };
    let usage =
        [to_series("views built", &built_by_day), to_series("views reused", &reused_by_day)];
    print_series("Figure 6a: cumulative views built vs reused", &usage, 7);

    // (b)–(d): cumulative latency / processing / bonus, baseline vs enabled.
    let base_daily = base.ledger.daily();
    let on_daily = on.ledger.daily();
    let panels: [(&str, fn(&cv_cluster::metrics::DailyMetrics) -> f64); 3] = [
        ("latency (s)", |m| m.latency_seconds),
        ("processing (s)", |m| m.processing_seconds),
        ("bonus processing (s)", |m| m.bonus_seconds),
    ];
    let mut results = JsonMap::new();
    let mut improvements = Vec::new();
    for (panel, (name, field)) in panels.iter().enumerate() {
        let b = Series::cumulative("baseline", &base_daily, field);
        let w = Series::cumulative("with CloudViews", &on_daily, field);
        print_series(
            &format!("Figure 6{}: cumulative {name}", ['b', 'c', 'd'][panel]),
            &[b.clone(), w.clone()],
            7,
        );
        let imp = improvement_pct(b.last(), w.last());
        println!("  -> overall improvement: {imp:.2}%");
        improvements.push((*name, imp));
        results.insert(
            name.to_string(),
            json!({
                "baseline_total": b.last(),
                "cloudviews_total": w.last(),
                "improvement_pct": imp,
            }),
        );
    }

    println!("\nPaper reference: latency -34% (median per-job -15%),");
    println!("processing time -38.96%, bonus processing time -45.01%.");

    results.insert("views_built_total", json!(on.view_store_stats.views_created));
    cv_bench::write_json("fig6_usage", &results);
    cv_bench::exit_unless_improved("fig6_usage", &improvements);
}
