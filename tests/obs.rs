//! cv-obs integration suite: the observability layer's own contracts on
//! top of the concurrent service driver.
//!
//! Contracts pinned here:
//!
//! 1. **Structure determinism** — the span tree (tracks, nesting, names,
//!    counter args) and the non-timing metrics of an observed run are a
//!    pure function of the workload: identical for 1, 2 and 8 workers and
//!    across repeated runs. Only `ts`/`dur` and `*_ns`/`*_us` values move.
//! 2. **Observation is free of side effects** — attaching a `ServiceObs`
//!    changes nothing about the run: digests, ledger totals and service
//!    counters match the unobserved (`None`-sink) run bit-for-bit.
//! 3. **Export round-trip** — the merged Chrome trace (service spans +
//!    simulated-cluster timeline) survives `cv_common::json` parse-back
//!    and carries the expected event shape.

use cv_common::json::Json;
use cv_workload::{
    generate_workload, run_workload_service, run_workload_service_obs, DriverConfig, ServiceConfig,
    ServiceObs, ServiceOutcome, Workload, WorkloadConfig,
};
use std::collections::BTreeMap;

fn obs_workload() -> Workload {
    generate_workload(WorkloadConfig {
        seed: 42,
        scale: 0.05,
        n_analytics: 16,
        ..WorkloadConfig::default()
    })
}

fn config() -> DriverConfig {
    let mut cfg = DriverConfig::enabled(2);
    cfg.cluster.total_containers = 200;
    cfg
}

fn observed_run(
    workload: &Workload,
    cfg: &DriverConfig,
    workers: usize,
) -> (ServiceOutcome, ServiceObs) {
    let obs = ServiceObs::new();
    let svc = ServiceConfig { workers, ..ServiceConfig::default() };
    let out = run_workload_service_obs(workload, cfg, &svc, Some(&obs)).unwrap();
    (out, obs)
}

/// Metric names whose values must not depend on the schedule: executor and
/// optimizer event counts, compile-time flight claims/resolutions, and the
/// pipelining counters. Steals, waits, queue depths and anything timing-
/// suffixed legitimately vary with worker count and are excluded.
fn schedule_independent(metrics: &cv_obs::Metrics) -> BTreeMap<String, u64> {
    metrics
        .deterministic_values()
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("executor.")
                || name.starts_with("optimizer.")
                || name.starts_with("store.")
                || name == "flight.claims"
                || name == "flight.resolves"
                || name == "service.pipelined_jobs"
                || name == "service.pipelined_reads"
                || name == "service.duplicate_materializations"
        })
        .collect()
}

/// Digest of a trace's deterministic structure: tracks, nesting, names and
/// counter args of every span.
fn structure_digest(obs: &ServiceObs) -> String {
    let mut h = cv_common::hash::StableHasher::with_domain("trace-structure");
    h.write_str(&obs.tracer.structure_json().to_string_compact());
    h.finish128().to_string()
}

#[test]
fn trace_structure_is_identical_across_worker_counts() {
    let w = obs_workload();
    let cfg = config();
    let (out1, obs1) = observed_run(&w, &cfg, 1);
    let reference = obs1.tracer.structure_json().to_string_compact();
    let reference_metrics = schedule_independent(&obs1.metrics);
    assert!(obs1.tracer.span_count() > 0, "observed run recorded no spans");
    assert_eq!(obs1.tracer.unbalanced_ends(), 0);

    // Pinned when the driver's instrumentation moved onto span guards
    // (PR 17), from the commit before: span names, tracks, nesting and args
    // are a contract (`perf/src/ledger.rs` reads them), so moving one is a
    // deliberate edit here.
    assert_eq!(structure_digest(&obs1), "6e027d310a3f18cab467d6957128a200");

    for workers in [2usize, 8] {
        let (out, obs) = observed_run(&w, &cfg, workers);
        assert_eq!(out.result_digests, out1.result_digests, "{workers} workers: digests");
        assert_eq!(
            obs.tracer.structure_json().to_string_compact(),
            reference,
            "{workers} workers: span structure diverged from the 1-worker run"
        );
        assert_eq!(
            schedule_independent(&obs.metrics),
            reference_metrics,
            "{workers} workers: schedule-independent metrics diverged"
        );
        assert_eq!(obs.tracer.unbalanced_ends(), 0, "{workers} workers: unbalanced spans");
    }
}

#[test]
fn observing_a_run_changes_nothing() {
    let w = obs_workload();
    let cfg = config();
    let svc = ServiceConfig { workers: 4, ..ServiceConfig::default() };
    let plain = run_workload_service(&w, &cfg, &svc).unwrap();
    let (observed, obs) = observed_run(&w, &cfg, 4);

    assert_eq!(observed.result_digests, plain.result_digests);
    assert_eq!(observed.failed_jobs, plain.failed_jobs);
    assert_eq!(observed.ledger.totals(), plain.ledger.totals());
    assert_eq!(observed.service.pipelined_reads, plain.service.pipelined_reads);
    assert_eq!(
        observed.service.duplicate_materializations,
        plain.service.duplicate_materializations
    );
    // The observed run actually observed something.
    assert!(obs.metrics.deterministic_values().contains_key("executor.ops"));
    assert!(obs.metrics.counter("executor.ops").get() > 0);
}

#[test]
fn chrome_trace_round_trips_through_cv_json() {
    let w = obs_workload();
    let (out, obs) = observed_run(&w, &config(), 2);

    // Merge service spans (pid 1) with the simulated-cluster timeline
    // (pid 2), exactly as `cv-serve --trace` writes it.
    let mut events = obs.tracer.chrome_events(1);
    let results: Vec<_> = out.ledger.records().iter().map(|r| r.result.clone()).collect();
    events.extend(cv_cluster::timeline::chrome_events(&results, 2));
    assert!(!events.is_empty());
    let trace = cv_obs::chrome_trace(events);

    let text = trace.to_string_pretty();
    let back = Json::parse(&text).expect("trace must be valid JSON");
    assert_eq!(back, trace, "chrome trace must round-trip through cv_common::json");

    let Json::Obj(root) = &back else { panic!("trace root must be an object") };
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        panic!("traceEvents array missing")
    };
    let mut pids = std::collections::BTreeSet::new();
    for ev in events {
        let Json::Obj(ev) = ev else { panic!("event must be an object") };
        assert!(ev.get("name").is_some(), "event missing name");
        let Some(Json::Str(ph)) = ev.get("ph") else { panic!("event missing ph") };
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        if let Some(pid) = ev.get("pid").and_then(Json::as_u64) {
            pids.insert(pid);
        }
    }
    assert!(pids.contains(&1), "service spans missing from merged trace");
    assert!(pids.contains(&2), "cluster timeline missing from merged trace");
}
