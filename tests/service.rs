//! Service-mode stress suite: the concurrent driver's contracts under
//! multi-threaded execution — the test-sized version of the `cv-serve` gate.
//!
//! Contracts pinned here:
//!
//! 1. **Determinism** — per-job result digests are byte-identical across
//!    the sequential driver, a 1-worker service run, and N-worker service
//!    runs, for multiple seeds; repeated N-worker runs agree bit-for-bit.
//! 2. **Single flight** — the duplicate-materialization counter stays 0
//!    under contention, and concurrent duplicates pipeline from the
//!    in-flight builder (realized savings > 0 once reuse warms up).
//! 3. **Graceful degradation** — an aggressive fault plan through the
//!    shared sharded store completes every job with fault-free results
//!    while the robustness counters prove the faults fired.
//! 4. **Failed jobs stay contained** — a job that cannot compile and a job
//!    that fails mid-execution fail alike in both drivers, say why, move
//!    no other job's result and leave no span open.

use cv_common::{FaultPlan, FaultPoint};
use cv_workload::templates::TemplateBody;
use cv_workload::{
    generate_workload, run_workload, run_workload_service, run_workload_service_obs, DriverConfig,
    ServiceConfig, ServiceObs, ServiceOutcome, Workload, WorkloadConfig,
};

fn stress_workload(seed: u64) -> Workload {
    generate_workload(WorkloadConfig {
        seed,
        scale: 0.05,
        n_analytics: 24,
        ..WorkloadConfig::default()
    })
}

fn config(days: u32, faults: FaultPlan) -> DriverConfig {
    let mut cfg = DriverConfig::enabled(days);
    cfg.cluster.total_containers = 200;
    cfg.faults = faults;
    cfg
}

fn service(workload: &Workload, cfg: &DriverConfig, workers: usize) -> ServiceOutcome {
    let svc = ServiceConfig { workers, ..ServiceConfig::default() };
    run_workload_service(workload, cfg, &svc).unwrap()
}

#[test]
fn digests_match_sequential_across_seeds_and_workers() {
    for seed in [7u64, 1234] {
        let w = stress_workload(seed);
        let cfg = config(3, FaultPlan::none());
        let sequential = run_workload(&w, &cfg).unwrap();
        assert_eq!(sequential.failed_jobs, 0);

        for workers in [1usize, 4, 8] {
            let out = service(&w, &cfg, workers);
            assert_eq!(out.failed_jobs, 0, "seed {seed}, {workers} workers: jobs failed");
            assert_eq!(
                out.result_digests, sequential.result_digests,
                "seed {seed}, {workers} workers: digests diverged from sequential driver"
            );
            assert_eq!(
                out.service.duplicate_materializations, 0,
                "seed {seed}, {workers} workers: single flight failed"
            );
        }
    }
}

#[test]
fn repeated_concurrent_runs_are_bit_identical() {
    let w = stress_workload(99);
    let cfg = config(3, FaultPlan::none());
    let a = service(&w, &cfg, 8);
    let b = service(&w, &cfg, 8);
    assert_eq!(a.result_digests, b.result_digests);
    assert_eq!(a.ledger.totals(), b.ledger.totals());
    assert_eq!(a.failed_jobs, 0);
    // Cluster-side metrics come from the deterministic merge, so even
    // per-job records agree.
    let fin_a: Vec<f64> = a.ledger.records().iter().map(|r| r.result.finish.seconds()).collect();
    let fin_b: Vec<f64> = b.ledger.records().iter().map(|r| r.result.finish.seconds()).collect();
    assert_eq!(fin_a, fin_b);
}

#[test]
fn single_flight_pipelines_concurrent_duplicates() {
    // Enough days for selection to publish and concurrent builds to
    // collide on wanted signatures.
    let w = stress_workload(7);
    let cfg = config(5, FaultPlan::none());
    let out = service(&w, &cfg, 8);
    assert_eq!(out.failed_jobs, 0);
    assert_eq!(out.service.duplicate_materializations, 0);
    assert!(
        out.service.pipelined_reads > 0,
        "expected at least one read served from an in-flight build"
    );
    assert!(out.service.realized_pipelining_savings > 0.0, "pipelined reads must realize savings");
    assert!(out.service.pipelined_jobs <= out.ledger.len() as u64);
    // Dependency gating means consumers never block on the flight itself.
    assert_eq!(out.service.flight_waits, 0, "scheduler should gate, not block");
}

#[test]
fn faults_degrade_gracefully_under_contention() {
    let w = stress_workload(7);
    let clean = service(&w, &config(4, FaultPlan::none()), 8);
    let faulty_plan = FaultPlan::seeded(1)
        .with_rate(FaultPoint::ViewRead, 0.2)
        .with_rate(FaultPoint::ViewWrite, 0.1)
        .with_rate(FaultPoint::ViewCorrupt, 0.1)
        .with_rate(FaultPoint::ViewExpiryRace, 0.05);
    let faulty = service(&w, &config(4, faulty_plan), 8);

    // Faults cost time, never correctness: every job completes and every
    // result is byte-identical to the fault-free run.
    assert_eq!(faulty.failed_jobs, 0, "faults must degrade, not fail jobs");
    assert_eq!(faulty.result_digests, clean.result_digests);
    assert_eq!(faulty.service.duplicate_materializations, 0);

    // ...and the faults really fired through the sharded store.
    let r = &faulty.robustness;
    assert!(
        r.view_read_failures + r.view_corruptions + r.view_write_failures > 0,
        "fault plan did not fire: {r:?}"
    );
    assert!(r.fallbacks_recompute > 0, "read faults must trigger recompute fallbacks: {r:?}");
    assert!(r.views_quarantined > 0, "read faults must quarantine views: {r:?}");
}

#[test]
fn concurrent_gdpr_purges_views() {
    let w = stress_workload(7);
    let mut cfg = config(5, FaultPlan::none());
    cfg.gdpr_every_days = Some(2);
    let sequential = run_workload(&w, &cfg).unwrap();
    let out = service(&w, &cfg, 4);
    assert_eq!(out.failed_jobs, 0);
    assert_eq!(out.result_digests, sequential.result_digests);
    // Selection may or may not pick user-joined views (the sequential
    // driver makes the same caveat); what must hold is that the sharded
    // store purges exactly what the sequential store purged.
    assert_eq!(out.gdpr_purged_views, sequential.gdpr_purged_views);
}

#[test]
fn failed_jobs_fail_alike_in_both_drivers_and_close_their_spans() {
    let mut w = stress_workload(7);
    // Two daily analytics templates go bad: one cannot compile (its dataset
    // does not exist), one compiles and fails on a worker (INT arithmetic
    // wraps, SUM(INT) is checked: two rows of this overflow it).
    let bad_sql = [
        "SELECT COUNT(*) AS n FROM no_such_dataset",
        "SELECT SUM(quantity + 9223372036854775000) AS s FROM sales",
    ];
    let mut broken = Vec::new();
    for t in w.templates.iter_mut().filter(|t| t.output_dataset().is_none() && t.period_days == 1) {
        let Some(sql) = bad_sql.get(broken.len()) else { break };
        t.body = TemplateBody::Sql(sql.to_string());
        broken.push(t.id);
    }
    assert_eq!(broken.len(), 2, "the workload has no two daily analytics templates");

    let cfg = config(3, FaultPlan::none());
    let sequential = run_workload(&w, &cfg).unwrap();
    let obs = ServiceObs::new();
    let svc = ServiceConfig { workers: 4, ..ServiceConfig::default() };
    let out = run_workload_service_obs(&w, &cfg, &svc, Some(&obs)).unwrap();

    // Both templates fail every day, for the reason planted, in both drivers.
    assert_eq!(out.failed_jobs, 6);
    assert_eq!(out.failed_jobs, out.failures.len() as u64);
    assert_eq!(out.failures, sequential.failures);
    assert_eq!(sequential.failed_jobs, out.failed_jobs);
    let why = |needle: &str| out.failures.iter().filter(|(_, e)| e.contains(needle)).count();
    assert_eq!((why("no_such_dataset"), why("overflow")), (3, 3), "{:?}", out.failures);

    // No other job noticed: same digests, and none for a failed job.
    assert_eq!(out.result_digests, sequential.result_digests);
    assert!(out.failures.iter().all(|(job, _)| !out.result_digests.contains_key(job)));
    assert!(out.result_digests.len() > out.failures.len());
    assert_eq!(out.service.duplicate_materializations, 0);

    // Every span the failed jobs opened was closed, marked failed.
    assert_eq!(obs.tracer.open_spans(), 0);
    assert_eq!(obs.tracer.unbalanced_ends(), 0);
    let spans = obs.tracer.spans();
    let failed = vec![("failed".to_string(), 1)];
    for (job, _) in &out.failures {
        let on_track = |name: &str| {
            spans.iter().filter(|s| s.track == job.0 + 1 && s.name == name).collect::<Vec<_>>()
        };
        let lifecycle = on_track("job");
        assert_eq!(lifecycle.len(), 1, "job {job}");
        assert_eq!(lifecycle[0].args, failed, "job {job}: its `job` span");
        // A job that got as far as a worker failed there and at commit.
        for phase in ["execute", "commit"] {
            assert!(on_track(phase).iter().all(|s| s.args == failed), "job {job}: `{phase}`");
        }
        assert_eq!(on_track("execute").len(), on_track("commit").len(), "job {job}");
    }
    let executed = spans.iter().filter(|s| s.name == "execute" && s.args == failed).count();
    assert_eq!(executed, 3, "the overflow jobs fail on a worker, the others before");
}
