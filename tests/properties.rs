//! Property-based tests on the core invariants, driven by deterministic
//! RNG loops (`DetRng`) rather than an external property-testing crate.
//! Each test draws a few dozen random cases from a fixed seed, so failures
//! reproduce exactly. Plan-level invariants (normalize idempotence,
//! signature stability) are checked through the `cv-analyzer` check
//! registry — the same code path the optimizer's verification hook runs.

use cloudviews::prelude::*;
use cv_analyzer::{codes, Analyzer};
use cv_common::rng::DetRng;
use cv_data::schema::{Field, Schema};
use cv_engine::expr::fold::normalize_expr;
use cv_engine::expr::{col, lit, ScalarExpr};
use cv_engine::normalize::normalize;
use cv_engine::optimizer::{AlwaysGrant, OptimizerConfig, ViewMeta};
use cv_engine::plan::{LogicalPlan, PlanBuilder};
use cv_engine::signature::{plan_signature, SigMode, SignatureConfig};
use std::sync::Arc;

/// A random comparison atom over the known columns a/b/c.
fn atom(rng: &mut DetRng) -> ScalarExpr {
    let l = col(*rng.choose(&["a", "b", "c"]));
    let r = lit(rng.range_i64(-20, 20));
    match rng.range_usize(0, 6) {
        0 => l.eq(r),
        1 => l.not_eq(r),
        2 => l.lt(r),
        3 => l.lt_eq(r),
        4 => l.gt(r),
        _ => l.gt_eq(r),
    }
}

fn atoms(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<ScalarExpr> {
    (0..rng.range_usize(lo, hi)).map(|_| atom(rng)).collect()
}

fn conj(xs: &[ScalarExpr]) -> ScalarExpr {
    let mut it = xs.iter().cloned();
    let first = it.next().unwrap();
    it.fold(first, |acc, x| acc.and(x))
}

fn random_rows(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<(i64, i64, i64)> {
    (0..rng.range_usize(lo, hi))
        .map(|_| (rng.range_i64(-20, 20), rng.range_i64(-20, 20), rng.range_i64(-20, 20)))
        .collect()
}

fn table_abc(rows: &[(i64, i64, i64)]) -> Table {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::new("b", DataType::Int),
        Field::new("c", DataType::Int),
    ])
    .unwrap()
    .into_ref();
    let rows: Vec<Vec<Value>> =
        rows.iter().map(|&(a, b, c)| vec![Value::Int(a), Value::Int(b), Value::Int(c)]).collect();
    Table::from_rows(schema, &rows).unwrap()
}

/// Assert, via the analyzer registry, that a (normalized) plan satisfies
/// the signature-determinism invariants: CV021 (normalize idempotent) and
/// CV022 (signature stable across re-normalization).
fn assert_plan_deterministic(analyzer: &Analyzer, plan: &Arc<LogicalPlan>, what: &str) {
    let mut input = analyzer.input();
    input.original = Some(plan);
    let report = analyzer.analyze(&input);
    assert!(
        !report.codes().contains(&codes::NORMALIZE_IDEMPOTENT)
            && !report.codes().contains(&codes::SIGNATURE_STABLE),
        "{what}: {}",
        report.to_text()
    );
}

/// Conjunct order never affects the normalized form or the signature.
#[test]
fn conjunction_order_insensitive() {
    let mut rng = DetRng::seed(0x01);
    for _ in 0..64 {
        let xs = atoms(&mut rng, 1, 5);
        let mut shuffled = xs.clone();
        rng.shuffle(&mut shuffled);
        assert_eq!(normalize_expr(&conj(&xs)), normalize_expr(&conj(&shuffled)));
    }
}

/// Expression normalization is idempotent.
#[test]
fn normalize_expr_idempotent() {
    let mut rng = DetRng::seed(0x02);
    for _ in 0..64 {
        let xs = atoms(&mut rng, 1, 6);
        let mut it = xs.into_iter();
        let first = it.next().unwrap();
        let e = it.fold(first, |acc, x| acc.or(x));
        let once = normalize_expr(&e);
        assert_eq!(once, normalize_expr(&once));
    }
}

/// Normalization preserves filter semantics, plan normalization is
/// idempotent (CV021), and signatures are stable (CV022) — asserted
/// through the analyzer's check registry.
#[test]
fn normalization_preserves_semantics() {
    let mut rng = DetRng::seed(0x03);
    let analyzer = Analyzer::default();
    for case in 0..32 {
        let mut engine = QueryEngine::new();
        let rows = random_rows(&mut rng, 0, 40);
        engine.catalog.register("t", table_abc(&rows), SimTime::EPOCH).unwrap();
        let pred = conj(&atoms(&mut rng, 1, 4));

        let plan = PlanBuilder::scan(&engine.catalog, "t").unwrap().filter(pred).unwrap().build();
        let cfg = SignatureConfig::default();
        let normalized = normalize(&plan, &cfg).unwrap();
        assert_plan_deterministic(&analyzer, &normalized, "random filter plan");
        assert_eq!(
            plan_signature(&normalized, &cfg, SigMode::Strict).unwrap(),
            plan_signature(&normalize(&normalized, &cfg).unwrap(), &cfg, SigMode::Strict).unwrap(),
            "case {case}"
        );

        // Executing raw vs normalized gives identical results.
        let run = |p: &Arc<LogicalPlan>| {
            let compiled = engine.optimize(p, &ReuseContext::empty(), &mut AlwaysGrant).unwrap();
            engine.execute(&compiled.outcome.physical, SimTime::EPOCH).unwrap().table
        };
        assert_eq!(run(&plan).canonical_rows(), run(&normalized).canonical_rows());
    }
}

/// Every signable plan a workload template produces passes the analyzer's
/// signature-determinism checks, and optimizing it (with no reuse) yields
/// a clean report end to end.
#[test]
fn workload_plans_are_deterministic_and_clean() {
    let mut rng = DetRng::seed(0x04);
    let mut engine = QueryEngine::new();
    for spec in cv_workload::schemas::raw_specs() {
        let table = spec.generate(&mut rng, 0.05, SimDay(0));
        engine.catalog.register(spec.name, table, SimTime::EPOCH).unwrap();
    }
    let analyzer = Analyzer::new(&engine.optimizer.cfg);
    let workload = generate_workload(WorkloadConfig::default());
    let mut checked = 0;
    let mut job = 0u64;
    // Cooking templates first so analytics templates can bind their inputs.
    let mut templates: Vec<_> = workload.templates.iter().collect();
    templates.sort_by_key(|t| t.output_dataset().is_none());
    for template in templates {
        let Ok(plan) = template.build_plan(&engine, SimDay(0)) else { continue };
        let normalized = normalize(&plan, &engine.optimizer.cfg.sig).unwrap();
        assert_plan_deterministic(&analyzer, &normalized, "workload template plan");

        let reuse = ReuseContext::empty();
        let compiled = engine.optimize(&plan, &reuse, &mut AlwaysGrant).unwrap();
        let report = analyzer.analyze_outcome(&normalized, &compiled.outcome, &reuse, None);
        assert!(!report.has_errors(), "template plan not clean:\n{}", report.to_text());
        checked += 1;

        if let Some(output) = template.output_dataset() {
            job += 1;
            let out =
                engine.run_plan(&plan, &reuse, JobId(job), template.vc, SimTime::EPOCH).unwrap();
            engine.catalog.register(output, out.table.clone(), SimTime::EPOCH).unwrap();
        }
    }
    assert!(checked > 10, "only {checked} template plans were checkable");
}

/// Materialize-then-reuse returns exactly what direct execution returns.
#[test]
fn reuse_roundtrip_preserves_results() {
    let mut rng = DetRng::seed(0x05);
    for _ in 0..32 {
        let mut engine = QueryEngine::new();
        let rows = random_rows(&mut rng, 1, 40);
        engine.catalog.register("t", table_abc(&rows), SimTime::EPOCH).unwrap();
        let a = atom(&mut rng);
        let b = atom(&mut rng);

        // Shared subexpression: Filter(a); the query adds a second filter b.
        let shared = PlanBuilder::scan(&engine.catalog, "t").unwrap().filter(a).unwrap().build();
        let query = PlanBuilder::from_plan(shared.clone()).filter(b).unwrap().build();

        let cfg = engine.optimizer.cfg.sig.clone();
        let shared_norm = normalize(&shared, &cfg).unwrap();
        let sig = plan_signature(&shared_norm, &cfg, SigMode::Strict).unwrap();

        // Run 1: build the view.
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(sig);
        let out1 = engine.run_plan(&query, &reuse, JobId(1), VcId(0), SimTime::EPOCH).unwrap();

        // Run 2: reuse it (if it was actually built — the merged filter may
        // normalize the shared prefix away; in that case skip).
        if let Some(view) = engine.views.peek(sig, SimTime::EPOCH) {
            let mut reuse2 = ReuseContext::empty();
            reuse2.available.insert(sig, ViewMeta::hot(view.rows as u64, view.bytes));
            let out2 = engine.run_plan(&query, &reuse2, JobId(2), VcId(0), SimTime::EPOCH).unwrap();
            assert_eq!(out1.table.canonical_rows(), out2.table.canonical_rows());
        }
        // And both equal the no-reuse execution.
        let baseline = engine
            .run_plan(&query, &ReuseContext::empty(), JobId(3), VcId(0), SimTime::EPOCH)
            .unwrap();
        assert_eq!(out1.table.canonical_rows(), baseline.table.canonical_rows());
    }
}

/// Selection never exceeds the storage budget, whatever the problem.
#[test]
fn selection_respects_budget() {
    let mut rng = DetRng::seed(0x06);
    for _ in 0..6 {
        let seed = rng.range_u64(0, 500);
        let budget_kb = rng.range_u64(0, 64);
        let workload = generate_workload(WorkloadConfig {
            seed,
            scale: 0.03,
            n_analytics: 8,
            ..Default::default()
        });
        let out = run_workload(&workload, &DriverConfig::baseline(2)).unwrap();
        let problem = cloudviews::core::build_problem(&out.repo, 2);
        let constraints = SelectionConstraints::with_budget(budget_kb * 1024);
        for selector in [&GreedySelector as &dyn ViewSelector, &LabelPropagationSelector::default()]
        {
            let sel = selector.select(&problem, &constraints);
            assert!(sel.est_storage <= budget_kb * 1024, "{} exceeded budget", selector.name());
            assert!(sel.est_savings >= 0.0);
        }
    }
}

/// Simulator conservation: processing + bonus container-seconds equal
/// total work / speed for every job, and latency ≥ critical path.
#[test]
fn simulator_conserves_work() {
    use cv_cluster::sim::JobSpec;
    use cv_cluster::stage::{Stage, StageGraph};
    let mut rng = DetRng::seed(0x07);
    for _ in 0..32 {
        let jobs: Vec<(f64, usize, f64)> = (0..rng.range_usize(1, 12))
            .map(|_| (rng.range_f64(1.0, 500.0), rng.range_usize(1, 40), rng.range_f64(0.0, 100.0)))
            .collect();
        let mut sim = ClusterSim::new(ClusterConfig::default());
        for (i, &(work, partitions, submit)) in jobs.iter().enumerate() {
            let graph = StageGraph {
                stages: vec![
                    Stage {
                        id: 0,
                        kind: "scan".into(),
                        work,
                        partitions,
                        deps: vec![],
                        seals_view: None,
                        checkpointed: false,
                    },
                    Stage {
                        id: 1,
                        kind: "agg".into(),
                        work: work / 2.0,
                        partitions: partitions.div_ceil(2),
                        deps: vec![0],
                        seals_view: None,
                        checkpointed: false,
                    },
                ],
            };
            sim.submit(JobSpec {
                job: JobId(i as u64),
                vc: VcId(i as u64 % 3),
                template: TemplateId(0),
                submit: SimTime(submit),
                stages: graph,
            })
            .unwrap();
        }
        sim.run_to_completion();
        assert_eq!(sim.results().len(), jobs.len());
        for r in sim.results() {
            let total = r.processing_seconds + r.bonus_seconds;
            let expected = r.total_work / 1.0; // default speed
            assert!((total - expected).abs() < 1e-6, "job {:?}: {total} vs {expected}", r.job);
            assert!(r.finish.seconds() >= r.start.seconds());
            assert!(r.start.seconds() >= r.submit.seconds());
        }
    }
}

/// Bloom filters never produce false negatives.
#[test]
fn bloom_no_false_negatives() {
    let mut rng = DetRng::seed(0x08);
    for _ in 0..16 {
        let keys: Vec<i64> =
            (0..rng.range_usize(1, 500)).map(|_| rng.range_i64(-10_000, 10_000)).collect();
        let mut bf = cloudviews::extensions::BloomFilter::new(keys.len(), 0.01);
        for &k in &keys {
            bf.insert(&Value::Int(k));
        }
        for &k in &keys {
            assert!(bf.contains(&Value::Int(k)));
        }
    }
}

/// Containment implication is sound: if `implies(a, b)` then every row
/// satisfying `a` satisfies `b`.
#[test]
fn containment_is_sound() {
    let mut rng = DetRng::seed(0x09);
    let mut hits = 0;
    for _ in 0..256 {
        let pa = conj(&atoms(&mut rng, 1, 3));
        let pb = conj(&atoms(&mut rng, 1, 3));
        if cloudviews::extensions::implies(&pa, &pb) {
            hits += 1;
            let t = table_abc(&random_rows(&mut rng, 0, 60));
            let mut ctx = cv_engine::expr::eval::EvalCtx::default();
            let sa = cv_engine::expr::eval::select(&pa, &t, None, &mut ctx).unwrap();
            let sb = cv_engine::expr::eval::select(&pb, &t, None, &mut ctx).unwrap();
            for i in sa {
                assert!(sb.binary_search(&i).is_ok(), "row {i} satisfies a but not b");
            }
        }
    }
    assert!(hits > 0, "implication never fired; generator too narrow");
}

/// Graceful degradation is correctness-preserving: under *random* fault
/// plans — view read/write/corruption/expiry faults, stage failures, bonus
/// preemptions, metadata outages — every job still completes and every
/// result is byte-identical to the fault-free run. The optimizer's
/// verification hook stays active (`verify_plans`), so a fault that
/// corrupted a rewrite would surface as a failed job, not a wrong answer.
#[test]
fn random_fault_plans_never_change_results() {
    use cv_common::{FaultPlan, FaultPoint, SimDuration};
    let mut rng = DetRng::seed(0x0b);
    let workload = generate_workload(WorkloadConfig {
        scale: 0.05,
        n_analytics: 12,
        ..WorkloadConfig::default()
    });
    let run = |faults: FaultPlan| {
        let mut cfg = DriverConfig::enabled(3);
        cfg.cluster.total_containers = 200;
        cfg.faults = faults;
        run_workload(&workload, &cfg).unwrap()
    };
    let clean = run(FaultPlan::none());
    assert_eq!(clean.failed_jobs, 0);

    for case in 0..4 {
        let mut plan = FaultPlan::seeded(rng.range_u64(1, 1_000_000));
        for point in FaultPoint::all() {
            plan = plan.with_rate(point, rng.range_f64(0.0, 0.3));
        }
        if rng.chance(0.5) {
            plan = plan.with_metadata_outages(
                SimDuration::from_secs(rng.range_f64(2.0, 8.0) * 3600.0),
                SimDuration::from_secs(rng.range_f64(0.2, 1.0) * 3600.0),
            );
        }
        let out = run(plan.clone());
        assert_eq!(out.failed_jobs, 0, "case {case}: jobs failed under {plan:?}");
        assert_eq!(
            out.result_digests, clean.result_digests,
            "case {case}: results diverged under {plan:?}"
        );
    }
}

/// The substitution-soundness checks reject a plan whose ViewScan was
/// never granted, across random plans (never a false accept).
#[test]
fn analyzer_rejects_random_ungranted_viewscans() {
    let mut rng = DetRng::seed(0x0a);
    let analyzer = Analyzer::new(&OptimizerConfig::default());
    for case in 0..32 {
        let mut engine = QueryEngine::new();
        engine
            .catalog
            .register("t", table_abc(&random_rows(&mut rng, 1, 20)), SimTime::EPOCH)
            .unwrap();
        let plan = PlanBuilder::scan(&engine.catalog, "t")
            .unwrap()
            .filter(conj(&atoms(&mut rng, 1, 3)))
            .unwrap()
            .build();
        let normalized = normalize(&plan, &engine.optimizer.cfg.sig).unwrap();
        let fake = Arc::new(LogicalPlan::ViewScan {
            sig: Sig128(rng.next_u64() as u128),
            schema: normalized.schema().unwrap(),
            rows: 1,
            bytes: 1,
        });
        let mut input = analyzer.input();
        let reuse = ReuseContext::empty();
        input.original = Some(&normalized);
        input.optimized = Some(&fake);
        input.reuse = Some(&reuse);
        let report = analyzer.analyze(&input);
        assert!(
            report.codes().contains(&codes::VIEW_NOT_GRANTED),
            "case {case} accepted an ungranted ViewScan:\n{}",
            report.to_text()
        );
    }
}
