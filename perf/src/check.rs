//! `cv-perf check <results-dir>`: does a set of result files say what
//! `BENCHMARK.json` promises?
//!
//! Run after `perf/run.sh --smoke --trace`: every workload has an end-to-end
//! and a per-layer result, each carries exactly the declared metrics with
//! the declared units, names are well formed and unique, every output was
//! correct, and no per-layer metric is declared that no workload measures.

use crate::spec::{MetricSpec, Spec};
use cv_common::json::Json;
use std::collections::BTreeSet;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Problems with one result file, appended to `problems`.
fn check_file(
    path: &str,
    declared: &[MetricSpec],
    measured: &mut BTreeSet<String>,
    problems: &mut Vec<String>,
) {
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|raw| Json::parse(&raw).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => return problems.push(format!("{path}: {e}")),
    };
    let result = doc.get("result");
    if result.and_then(|r| r.get("correct")).and_then(Json::as_bool) != Some(true) {
        problems.push(format!("{path}: outputs were not all correct"));
    }
    let Some(metrics) = result.and_then(|r| r.get("metrics")).and_then(Json::as_obj) else {
        return problems.push(format!("{path}: no result.metrics object"));
    };
    if metrics.len() != declared.len() {
        problems.push(format!("{path}: {} metrics, {} declared", metrics.len(), declared.len()));
    }
    for m in declared {
        let Some(entry) = metrics.get(&m.name) else {
            problems.push(format!("{path}: `{}` missing", m.name));
            continue;
        };
        if entry.get("unit").and_then(Json::as_str) != Some(m.unit.as_str()) {
            problems.push(format!("{path}: `{}` has the wrong unit", m.name));
        }
        if entry.get("value").and_then(Json::as_f64).is_none() {
            problems.push(format!("{path}: `{}` has no numeric value", m.name));
        }
    }
    if let Some(values) = doc.get("values").and_then(Json::as_obj) {
        measured.extend(values.iter().map(|(name, _)| name.to_string()));
    }
}

pub fn check(dir: &str) -> Result<bool, String> {
    let spec = Spec::load()?;
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        if !well_formed(&m.name) {
            problems.push(format!("metric name `{}` is malformed", m.name));
        }
        if m.unit.is_empty() {
            problems.push(format!("metric `{}` has no unit", m.name));
        }
        if !seen.insert(m.name.as_str()) {
            problems.push(format!("metric `{}` is declared twice", m.name));
        }
    }
    let mut measured = BTreeSet::new();
    for workload in &spec.workloads {
        if !well_formed(workload) || !seen.insert(workload.as_str()) {
            problems.push(format!("workload name `{workload}` is malformed or reused"));
        }
        check_file(
            &format!("{dir}/{workload}.json"),
            &spec.end_to_end,
            &mut measured,
            &mut problems,
        );
        let traced = format!("{dir}/{workload}-trace.json");
        check_file(&traced, &spec.per_layer, &mut measured, &mut problems);
    }
    for m in &spec.per_layer {
        if !measured.contains(&m.name) {
            problems.push(format!("per-layer metric `{}` is measured by no workload", m.name));
        }
    }
    for p in &problems {
        println!("check: {p}");
    }
    println!(
        "check: {} workloads x ({} end-to-end + {} per-layer) metrics, {} problems",
        spec.workloads.len(),
        spec.end_to_end.len(),
        spec.per_layer.len(),
        problems.len()
    );
    Ok(problems.is_empty())
}
