//! `BENCHMARK.json`, the one place metric names, units, directions and
//! regression bounds are declared. The harness computes values; which of
//! them are printed, under which unit, comes from this file — so a metric
//! cannot be emitted without being declared, nor declared without being
//! emitted.

use cv_common::json::Json;

pub const SPEC_PATH: &str = "BENCHMARK.json";

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which explain and never gate.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("{SPEC_PATH}: missing `{key}`"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{SPEC_PATH}: `{key}` is not a string"))
}

fn items<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(obj, key)?.as_arr().ok_or_else(|| format!("{SPEC_PATH}: `{key}` is not a list"))
}

fn metrics(root: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    items(root, key)?
        .iter()
        .map(|m| {
            let better = text(m, "better")?;
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{SPEC_PATH}: better = `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Read `BENCHMARK.json` from the working directory (the repository
    /// root: that is where the benchmark command is run from).
    pub fn load() -> Result<Spec, String> {
        let raw = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let root = Json::parse(&raw).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        Ok(Spec {
            run_seconds: field(&root, "run_seconds")?
                .as_f64()
                .ok_or_else(|| format!("{SPEC_PATH}: `run_seconds` is not a number"))?,
            workloads: items(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }
}
