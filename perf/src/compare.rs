//! `cv-perf compare <baseline-dir> <change-dir>`: did an end-to-end metric
//! get worse by more than its bound?
//!
//! Each directory holds the result files of one or more runs (directly, or
//! one subdirectory per run, as `perf/run.sh --runs N --out DIR` lays them
//! out). Per workload and metric the runs' values are reduced to a median
//! and a quartile spread, and the change is judged by the metric's own
//! direction and bound from `BENCHMARK.json`.

use crate::spec::{MetricSpec, Spec};
use crate::stats::Summary;
use cv_common::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_result(path: &Path, runs: &mut Runs) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("trace").and_then(Json::as_bool) != Some(false) {
        return Ok(()); // per-layer results explain, they are not compared
    }
    let (Some(workload), Some(metrics)) = (
        doc.get("workload").and_then(Json::as_str),
        doc.get("result").and_then(|r| r.get("metrics")).and_then(Json::as_obj),
    ) else {
        return Err(format!("{}: not a cv-perf result file", path.display()));
    };
    for (name, metric) in metrics.iter() {
        if let Some(value) = metric.get("value").and_then(Json::as_f64) {
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(())
}

fn read_runs(dir: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut pending = vec![(Path::new(dir).to_path_buf(), true)];
    while let Some((at, descend)) = pending.pop() {
        let entries = std::fs::read_dir(&at).map_err(|e| format!("{}: {e}", at.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", at.display()))?.path();
            if path.is_dir() {
                if descend {
                    pending.push((path, false));
                }
            } else if path.extension().is_some_and(|ext| ext == "json") {
                read_result(&path, &mut runs)?;
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("{dir}: no result files"));
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regressed,
}

/// Judge one metric on one workload. `worse_by` is the change in the
/// median as a share of the baseline, positive when the metric got worse.
fn judge(metric: &MetricSpec, bound: f64, base: &[f64], change: &[f64]) -> (Verdict, f64) {
    let (a, b) = (Summary::of(base), Summary::of(change));
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let worse_by =
        if a.median == 0.0 { 0.0 } else { sign * (b.median - a.median) / a.median.abs() };
    let every_run_better = base.iter().all(|x| change.iter().all(|y| sign * (y - x) < 0.0));
    let verdict = if a.spread() > bound || b.spread() > bound {
        // The runs disagree among themselves by more than the bound: the
        // medians cannot show "unchanged", only a clean sweep shows "better".
        if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if every_run_better {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// Prints one row per workload × end-to-end metric; `Ok(false)` (exit 1)
/// when any metric regressed.
pub fn compare(baseline_dir: &str, change_dir: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let (baseline, change) = (read_runs(baseline_dir)?, read_runs(change_dir)?);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<15}{:<14}{:>14}{:>14}{:>9}{:>8}{:>8}  verdict",
        "workload", "metric", "baseline", "change", "worse %", "bound %", "runs"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let bound = metric.bound.ok_or_else(|| format!("{}: no bound", metric.name))?;
            let side = |runs: &Runs| runs.get(workload).and_then(|m| m.get(&metric.name)).cloned();
            let (Some(a), Some(b)) = (side(&baseline), side(&change)) else {
                return Err(format!("{workload}/{}: missing on one side", metric.name));
            };
            let (verdict, worse_by) = judge(metric, bound, &a, &b);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Better => "better",
                Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                Verdict::Regressed => "REGRESSED",
            };
            println!(
                "{workload:<15}{:<14}{:>14.4}{:>14.4}{:>9.2}{:>8.1}{:>5}/{:<2}  {label}",
                metric.name,
                Summary::of(&a).median,
                Summary::of(&b).median,
                100.0 * worse_by,
                100.0 * bound,
                a.len(),
                b.len(),
            );
            *counts.entry(label).or_default() += 1;
        }
    }
    println!("{counts:?}");
    Ok(!counts.contains_key("REGRESSED"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(name: &str) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let m = lower("run_wall_s");
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&m, 0.1, &base, &[1.05, 1.04, 1.06, 1.05, 1.03]).0, Verdict::Ok);
        assert_eq!(judge(&m, 0.1, &base, &[1.25, 1.24, 1.26, 1.25, 1.23]).0, Verdict::Regressed);
        assert_eq!(judge(&m, 0.1, &base, &[0.80, 0.81, 0.79, 0.80, 0.82]).0, Verdict::Better);
        // Noisy change side: a worse median is not called a regression...
        assert_eq!(judge(&m, 0.1, &base, &[1.0, 1.6, 0.9, 1.3, 1.2]).0, Verdict::Unresolved);
        // ...but a clean sweep is still a gain.
        assert_eq!(judge(&m, 0.1, &base, &[0.5, 0.9, 0.6, 0.8, 0.7]).0, Verdict::Better);

        let higher = MetricSpec { higher_is_better: true, ..lower("jobs_per_s") };
        let (verdict, worse_by) = judge(&higher, 0.1, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]);
        assert_eq!(verdict, Verdict::Regressed);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }
}
