//! Shared experiment harness.
//!
//! Every paper table/figure has a binary under `src/bin/`; this library
//! holds the common scenario definitions and reporting helpers so that all
//! experiments run over the *same* simulated deployment (matching how the
//! paper reports one production window across Table 1 and Figs. 6–7).
//!
//! Results print as aligned text tables and are also written as JSON under
//! `target/experiments/` for downstream plotting.

use cv_cluster::metrics::DailyMetrics;
use cv_cluster::sim::ClusterConfig;
use cv_common::json::{json, Json, ToJson};
use cv_common::SimDay;
use cv_workload::{
    generate_workload, run_workload, DriverConfig, DriverOutcome, Workload, WorkloadConfig,
};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;

/// The standard two-month deployment scenario (paper §3: February–March
/// 2020). One workload, replayed twice: baseline and CloudViews-enabled.
pub fn two_month_scenario() -> (Workload, DriverConfig, DriverConfig) {
    scenario(59) // 2/1/20 … 3/30/20 inclusive
}

/// Same workload shape over an arbitrary number of days.
///
/// Calibration (relative to the library defaults, which favor unit tests):
/// * containers are slow and scarce (8 guaranteed per VC out of 96 total),
///   so jobs run for minutes, queue under bursts, and routinely spill onto
///   opportunistic *bonus* capacity — the §3.4 regime;
/// * partitioning is fine-grained (32 estimated rows per partition), so the
///   optimizer's cardinality over-estimates visibly over-partition stages —
///   the §3.5 regime that container savings come from.
pub fn scenario(days: u32) -> (Workload, DriverConfig, DriverConfig) {
    let workload = generate_workload(WorkloadConfig::default());
    let mut cluster = ClusterConfig {
        total_containers: 640,
        default_vc_guaranteed: 8,
        container_speed: 3e-4,
        ..ClusterConfig::default()
    };
    // The cooking VC is the big funded pipeline: a production-sized
    // guaranteed allocation (its wide stages shouldn't live off bonus).
    cluster.vc_guaranteed.insert(cv_common::ids::VcId(0), 96);
    let mut optimizer = cv_engine::optimizer::OptimizerConfig::default();
    optimizer.rows_per_partition = 16.0;
    optimizer.max_partitions = 64;

    let mut baseline = DriverConfig::baseline(days);
    baseline.cluster = cluster.clone();
    baseline.optimizer = optimizer.clone();
    let mut enabled = DriverConfig::enabled(days);
    enabled.cluster = cluster;
    enabled.optimizer = optimizer;
    (workload, baseline, enabled)
}

/// Run baseline + enabled over the same workload.
pub fn run_both(
    workload: &Workload,
    baseline: &DriverConfig,
    enabled: &DriverConfig,
) -> (DriverOutcome, DriverOutcome) {
    let base = run_workload(workload, baseline).expect("baseline run");
    let on = run_workload(workload, enabled).expect("enabled run");
    assert_eq!(base.failed_jobs, 0, "baseline had failed jobs");
    assert_eq!(on.failed_jobs, 0, "enabled run had failed jobs");
    (base, on)
}

/// Print a two-column table in the paper's Table 1 style.
pub fn print_kv_table(title: &str, rows: &[(String, String)]) {
    println!("\n=== {title} ===");
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<w$}  {v}");
    }
}

/// A named daily series (one line of a paper figure).
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<(String, f64)>,
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        let points: Vec<Json> =
            self.points.iter().map(|(label, v)| json!([label.as_str(), *v])).collect();
        json!({ "name": self.name.as_str(), "points": points })
    }
}

impl Series {
    /// Build a *cumulative* daily series from per-day metrics, like the
    /// paper's cumulative plots.
    pub fn cumulative(
        name: &str,
        daily: &BTreeMap<SimDay, DailyMetrics>,
        field: impl Fn(&DailyMetrics) -> f64,
    ) -> Series {
        let mut acc = 0.0;
        let points = daily
            .iter()
            .map(|(day, m)| {
                acc += field(m);
                (day.label(), acc)
            })
            .collect();
        Series { name: name.to_string(), points }
    }

    pub fn last(&self) -> f64 {
        self.points.last().map(|(_, v)| *v).unwrap_or(0.0)
    }
}

/// Print aligned daily series side by side (a text rendition of a figure).
pub fn print_series(title: &str, series: &[Series], every: usize) {
    println!("\n=== {title} ===");
    print!("  {:<10}", "day");
    for s in series {
        print!(" {:>18}", s.name);
    }
    println!();
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in (0..n).step_by(every.max(1)) {
        let label =
            series.iter().find_map(|s| s.points.get(i).map(|(l, _)| l.clone())).unwrap_or_default();
        print!("  {label:<10}");
        for s in series {
            match s.points.get(i) {
                Some((_, v)) => print!(" {v:>18.1}"),
                None => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
    // Always show the final cumulative row.
    if n > 0 && (n - 1) % every.max(1) != 0 {
        let label = series[0].points[n - 1].0.clone();
        print!("  {label:<10}");
        for s in series {
            print!(" {:>18.1}", s.points.get(n - 1).map(|(_, v)| *v).unwrap_or(0.0));
        }
        println!();
    }
}

/// Percentage improvement of `with` over `base` (positive = better).
pub fn improvement_pct(base: f64, with: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (base - with) / base
    }
}

/// Exit 1, naming the rows, when an improvement the paper reports is not
/// positive (≤ 0 or NaN): CloudViews no longer wins that row. The figures are
/// simulated time and counts, so the exit code is the same on every host.
pub fn exit_unless_improved(bin: &str, rows: &[(&str, f64)]) {
    let lost: Vec<String> = rows
        .iter()
        .filter(|(_, pct)| pct.is_nan() || *pct <= 0.0)
        .map(|(row, pct)| format!("{row} {pct:.2}%"))
        .collect();
    if !lost.is_empty() {
        eprintln!("{bin}: CloudViews no longer improves {}", lost.join(", "));
        std::process::exit(1);
    }
}

/// Write a JSON artifact under `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &impl ToJson) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create artifact");
    let json = value.to_json().to_string_pretty();
    f.write_all(json.as_bytes()).expect("write artifact");
    println!("\n[artifact] {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_series_accumulates() {
        let mut daily = BTreeMap::new();
        daily.insert(
            SimDay(0),
            DailyMetrics { jobs: 2, latency_seconds: 10.0, ..Default::default() },
        );
        daily.insert(
            SimDay(1),
            DailyMetrics { jobs: 3, latency_seconds: 5.0, ..Default::default() },
        );
        let s = Series::cumulative("lat", &daily, |m| m.latency_seconds);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].1, 10.0);
        assert_eq!(s.points[1].1, 15.0);
        assert_eq!(s.last(), 15.0);
        assert_eq!(s.points[0].0, "2/1/20");
    }

    #[test]
    fn improvement_math() {
        assert!((improvement_pct(100.0, 66.0) - 34.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn scenario_is_deterministic() {
        let (w1, _, _) = scenario(3);
        let (w2, _, _) = scenario(3);
        assert_eq!(w1.templates.len(), w2.templates.len());
    }
}
