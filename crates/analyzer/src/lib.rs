//! Plan-invariant static analysis for the CloudViews optimizer.
//!
//! The paper's production experience (§3–4) is blunt: a wrong view
//! substitution silently corrupts customer results, so reuse only shipped
//! behind extensive plan validation. This crate is that validation layer
//! for the reproduction — a registry of invariant checks
//! ([`CheckRegistry`]) that walks [`LogicalPlan`]/`PhysicalPlan` trees and
//! emits structured [`Diagnostic`]s with stable `CV0xx` codes:
//!
//! | family | invariant |
//! |--------|-----------|
//! | CV01x  | schema soundness (derivation, ViewScan == replaced subexpression) |
//! | CV02x  | signature determinism (normalize idempotent, signatures stable) |
//! | CV03x  | substitution soundness (granted, live, real subexpression) |
//! | CV04x  | spool well-formedness (unique, acyclic, granted, fully consumed) |
//! | CV05x  | cost/statistics sanity (finite, non-negative, monotone) |
//! | CV06x  | containment certification (semantic substitutions re-verify) |
//! | CV07x  | incremental-maintenance eligibility (retractable aggregates, integer state, delta-distributing operators) |
//!
//! The [`Analyzer`] implements `cv_engine::verify::PlanVerifier`, so an
//! engine configured with `OptimizerConfig::verify_plans` audits every
//! plan it optimizes and rejects (with `Err`, never a panic) any plan
//! carrying an error-severity diagnostic. It also implements
//! `cv_engine::containment::ContainmentProver` (see [`containment`]), which
//! the optimizer consults to certify semantic view matches before
//! substituting a compensation plan. The `cv-analyze` binary sweeps the
//! workload templates through the optimizer under several reuse
//! configurations and prints the aggregate report.

pub mod checks;
pub mod containment;
pub mod diag;

pub use checks::{AnalysisInput, Check, CheckRegistry, Maintainability};
pub use containment::prove_containment;
pub use diag::{codes, Diagnostic, Report, Severity};

use cv_common::hash::Sig128;
use cv_common::{CvError, Result};
use cv_engine::containment::{ContainmentProof, ContainmentProver, ContainmentRefusal};
use cv_engine::cost::CostModel;
use cv_engine::optimizer::{OptimizeOutcome, OptimizerConfig, ReuseContext};
use cv_engine::physical::PhysicalPlan;
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::SignatureConfig;
use cv_engine::verify::PlanVerifier;
use std::collections::HashSet;
use std::sync::Arc;

/// The analysis pass: a check registry plus the signature/cost
/// configuration the checks interpret plans under. Construct it from the
/// same [`OptimizerConfig`] the optimizer runs with, or the signature
/// checks would chase a different normal form than the one being audited.
#[derive(Debug)]
pub struct Analyzer {
    registry: CheckRegistry,
    sig: SignatureConfig,
    cost: CostModel,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new(&OptimizerConfig::default())
    }
}

impl Analyzer {
    pub fn new(cfg: &OptimizerConfig) -> Analyzer {
        Analyzer::with_registry(cfg, CheckRegistry::standard())
    }

    pub fn with_registry(cfg: &OptimizerConfig, registry: CheckRegistry) -> Analyzer {
        Analyzer { registry, sig: cfg.sig.clone(), cost: cfg.cost.clone() }
    }

    pub fn registry(&self) -> &CheckRegistry {
        &self.registry
    }

    /// Run every check over whatever parts of the input are present.
    pub fn analyze(&self, input: &AnalysisInput<'_>) -> Report {
        self.registry.run(input)
    }

    /// Blank input preconfigured with this analyzer's signature/cost view.
    pub fn input(&self) -> AnalysisInput<'_> {
        AnalysisInput::new(&self.sig, &self.cost)
    }

    /// Audit one full optimization: the pre-rewrite normalized plan, the
    /// outcome's logical + physical plans, and the annotations that drove
    /// the rewrite. `live_views` (when the view store is reachable) lets
    /// the CV033 liveness check run too.
    pub fn analyze_outcome(
        &self,
        original: &Arc<LogicalPlan>,
        outcome: &OptimizeOutcome,
        reuse: &ReuseContext,
        live_views: Option<&HashSet<Sig128>>,
    ) -> Report {
        let mut input = self.input();
        input.original = Some(original);
        input.optimized = Some(&outcome.logical);
        input.physical = Some(&outcome.physical);
        input.reuse = Some(reuse);
        input.live_views = live_views;
        self.analyze(&input)
    }

    /// Gate an incremental-maintenance candidate: run the registry with
    /// the defining plan in the `maintenance_plan` slot. Any CV07x
    /// diagnostic in the report vetoes maintenance (the caller falls back
    /// to a full rebuild), mirroring how CV06x vetoes containment matches.
    pub fn check_maintainability(&self, plan: &Arc<LogicalPlan>) -> Report {
        let mut input = self.input();
        input.maintenance_plan = Some(plan);
        self.analyze(&input)
    }

    fn reject_on_errors(report: Report, stage: &str) -> Result<()> {
        if !report.has_errors() {
            return Ok(());
        }
        let mut lines: Vec<String> = report.errors().map(|d| d.to_string()).collect();
        let shown = lines.len().min(5);
        let omitted = lines.len() - shown;
        lines.truncate(shown);
        let mut msg = format!("plan verification failed ({stage}): {}", lines.join("; "));
        if omitted > 0 {
            msg.push_str(&format!("; … and {omitted} more"));
        }
        Err(CvError::plan(msg))
    }
}

impl ContainmentProver for Analyzer {
    fn prove(
        &self,
        view: &Arc<LogicalPlan>,
        candidate: &Arc<LogicalPlan>,
    ) -> std::result::Result<ContainmentProof, ContainmentRefusal> {
        containment::prove_containment(view, candidate, &self.sig)
    }
}

impl PlanVerifier for Analyzer {
    fn verify_logical(
        &self,
        original: &Arc<LogicalPlan>,
        optimized: &Arc<LogicalPlan>,
        reuse: &ReuseContext,
    ) -> Result<()> {
        let mut input = self.input();
        input.original = Some(original);
        input.optimized = Some(optimized);
        input.reuse = Some(reuse);
        Self::reject_on_errors(self.analyze(&input), "logical")
    }

    fn verify_physical(&self, physical: &PhysicalPlan) -> Result<()> {
        let mut input = self.input();
        input.physical = Some(physical);
        Self::reject_on_errors(self.analyze(&input), "physical")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_common::ids::VersionGuid;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;
    use cv_engine::expr::{col, lit};
    use cv_engine::normalize::normalize;
    use cv_engine::optimizer::{AlwaysGrant, Optimizer, ViewMeta};
    use cv_engine::plan::JoinKind;
    use cv_engine::signature::{plan_signature, SigMode};
    use cv_engine::stats::Statistics;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Scan {
            dataset: name.to_string(),
            guid: VersionGuid(1),
            schema: Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect())
                .unwrap()
                .into_ref(),
        })
    }

    fn query() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Join {
            left: scan("sales", &[("s_cust", DataType::Int), ("price", DataType::Float)]),
            right: Arc::new(LogicalPlan::Filter {
                predicate: col("seg").eq(lit("asia")),
                input: scan("customer", &[("c_id", DataType::Int), ("seg", DataType::Str)]),
            }),
            on: vec![("s_cust".into(), "c_id".into())],
            kind: JoinKind::Inner,
        })
    }

    fn stats(name: &str) -> Option<(f64, f64)> {
        match name {
            "sales" => Some((200_000.0, 20_000_000.0)),
            "customer" => Some((10_000.0, 400_000.0)),
            _ => None,
        }
    }

    #[test]
    fn clean_optimization_is_clean() {
        let opt = Optimizer::default();
        let analyzer = Analyzer::new(&opt.cfg);
        let normalized = normalize(&query(), &opt.cfg.sig).unwrap();
        let reuse = ReuseContext::empty();
        let out =
            opt.optimize(&opt.sign(&query()).unwrap(), &reuse, &stats, &mut AlwaysGrant).unwrap();
        let report = analyzer.analyze_outcome(&normalized, &out, &reuse, None);
        assert!(report.is_clean(), "unexpected diagnostics:\n{}", report.to_text());
    }

    #[test]
    fn matched_view_is_clean() {
        let opt = Optimizer::default();
        let analyzer = Analyzer::new(&opt.cfg);
        let normalized = normalize(&query(), &opt.cfg.sig).unwrap();
        let sig = plan_signature(&normalized, &opt.cfg.sig, SigMode::Strict).unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.available.insert(sig, ViewMeta::hot(10_000, 100_000));
        let out =
            opt.optimize(&opt.sign(&query()).unwrap(), &reuse, &stats, &mut AlwaysGrant).unwrap();
        assert!(out.logical.uses_views());
        let mut live = HashSet::new();
        live.insert(sig);
        let report = analyzer.analyze_outcome(&normalized, &out, &reuse, Some(&live));
        assert!(report.is_clean(), "unexpected diagnostics:\n{}", report.to_text());
    }

    #[test]
    fn ungranted_viewscan_is_cv031() {
        let opt = Optimizer::default();
        let analyzer = Analyzer::new(&opt.cfg);
        let normalized = normalize(&query(), &opt.cfg.sig).unwrap();
        // Hand-splice a ViewScan the ReuseContext never granted.
        let fake = Arc::new(LogicalPlan::ViewScan {
            sig: Sig128(0xDEAD),
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
        assert!(report.codes().contains(&codes::VIEW_NOT_GRANTED), "{}", report.to_text());
        assert!(report.codes().contains(&codes::VIEW_NO_SUBEXPR), "{}", report.to_text());
    }

    #[test]
    fn verifier_rejects_with_err_not_panic() {
        let opt = Optimizer::default();
        let analyzer = Analyzer::new(&opt.cfg);
        let normalized = normalize(&query(), &opt.cfg.sig).unwrap();
        let fake = Arc::new(LogicalPlan::ViewScan {
            sig: Sig128(0xBEEF),
            schema: normalized.schema().unwrap(),
            rows: 1,
            bytes: 1,
        });
        let err = analyzer.verify_logical(&normalized, &fake, &ReuseContext::empty()).unwrap_err();
        assert!(err.to_string().contains("CV031"), "{err}");
    }

    #[test]
    fn invalid_stats_are_cv051() {
        let analyzer = Analyzer::default();
        let physical = PhysicalPlan::TableScan {
            dataset: "sales".into(),
            guid: VersionGuid(1),
            schema: Schema::new(vec![Field::new("a", DataType::Int)]).unwrap().into_ref(),
            est: Statistics { rows: f64::NAN, bytes: -1.0, accurate: false },
            partitions: 1,
        };
        let mut input = analyzer.input();
        input.physical = Some(&physical);
        let report = analyzer.analyze(&input);
        assert!(report.codes().contains(&codes::STATS_INVALID), "{}", report.to_text());
        assert!(report.has_errors());
    }

    #[test]
    fn diag_codes_are_exhaustively_owned() {
        let registry = CheckRegistry::standard();
        let families: Vec<&str> = registry.checks().map(|c| c.family()).collect();
        let family_set: HashSet<&str> = families.iter().copied().collect();
        assert_eq!(families.len(), family_set.len(), "check families must be distinct");

        let mut seen = HashSet::new();
        for (code, family) in codes::ALL {
            assert!(seen.insert(*code), "duplicate code {code} in codes::ALL");
            // `CV061` belongs to `CV06x`: the family is the code with its
            // last digit wildcarded.
            let derived = format!("{}x", &code[..code.len() - 1]);
            assert_eq!(&derived, family, "codes::ALL family mismatch for {code}");
            assert!(
                family_set.contains(family),
                "code {code} claims family {family}, but no registered check owns it"
            );
        }
        for family in &family_set {
            assert!(
                codes::ALL.iter().any(|(_, f)| f == family),
                "registered family {family} has no codes in codes::ALL"
            );
        }
        // The crate-level doc table must list every registered family.
        let doc = include_str!("lib.rs");
        for family in &family_set {
            assert!(doc.contains(family), "lib.rs doc table is missing family {family}");
        }
    }

    /// Semantic fixture: a view filtering `customer` to asia, and a
    /// candidate narrowing that further — containment provable with a
    /// residual filter.
    fn semantic_pair() -> (Arc<LogicalPlan>, Arc<LogicalPlan>) {
        let customer = scan("customer", &[("c_id", DataType::Int), ("seg", DataType::Str)]);
        let view = Arc::new(LogicalPlan::Filter {
            predicate: col("seg").eq(lit("asia")),
            input: customer.clone(),
        });
        let candidate = Arc::new(LogicalPlan::Filter {
            predicate: col("seg").eq(lit("asia")).and(col("c_id").gt(lit(5))),
            input: customer,
        });
        (view, candidate)
    }

    #[test]
    fn certified_semantic_substitution_is_clean() {
        let mut opt = Optimizer::default();
        let analyzer = Arc::new(Analyzer::new(&opt.cfg));
        opt.set_prover(analyzer.clone());
        let (view, candidate) = semantic_pair();
        let view = normalize(&view, &opt.cfg.sig).unwrap();
        let view_sig = plan_signature(&view, &opt.cfg.sig, SigMode::Strict).unwrap();
        let template = cv_engine::signature::template_signature(&view, &opt.cfg.sig).unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.semantic.insert(
            view_sig,
            cv_engine::optimizer::SemanticGrant {
                plan: view,
                meta: ViewMeta::hot(3_000, 120_000),
                template,
            },
        );
        let normalized = normalize(&candidate, &opt.cfg.sig).unwrap();
        let out =
            opt.optimize(&opt.sign(&candidate).unwrap(), &reuse, &stats, &mut AlwaysGrant).unwrap();
        assert_eq!(out.compensated_views.len(), 1, "semantic match must fire");
        let report = analyzer.analyze_outcome(&normalized, &out, &reuse, None);
        assert!(report.is_clean(), "unexpected diagnostics:\n{}", report.to_text());
    }

    #[test]
    fn bogus_prover_is_vetoed_with_cv061() {
        // A prover that certifies everything with no compensation at all.
        #[derive(Debug)]
        struct YesMan;
        impl cv_engine::containment::ContainmentProver for YesMan {
            fn prove(
                &self,
                _view: &Arc<LogicalPlan>,
                _candidate: &Arc<LogicalPlan>,
            ) -> std::result::Result<
                cv_engine::containment::ContainmentProof,
                cv_engine::containment::ContainmentRefusal,
            > {
                Ok(cv_engine::containment::ContainmentProof::default())
            }
        }
        let mut opt = Optimizer::default();
        opt.cfg.verify_plans = true;
        opt.set_prover(Arc::new(YesMan));
        opt.set_verifier(Arc::new(Analyzer::new(&opt.cfg)));
        // View is *narrower* than the candidate: containment is unsound.
        let customer = scan("customer", &[("c_id", DataType::Int), ("seg", DataType::Str)]);
        let view = normalize(
            &Arc::new(LogicalPlan::Filter {
                predicate: col("c_id").gt(lit(5)),
                input: customer.clone(),
            }),
            &opt.cfg.sig,
        )
        .unwrap();
        let candidate =
            Arc::new(LogicalPlan::Filter { predicate: col("c_id").gt(lit(0)), input: customer });
        let view_sig = plan_signature(&view, &opt.cfg.sig, SigMode::Strict).unwrap();
        let template = cv_engine::signature::template_signature(&view, &opt.cfg.sig).unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.semantic.insert(
            view_sig,
            cv_engine::optimizer::SemanticGrant {
                plan: view,
                meta: ViewMeta::hot(10, 100),
                template,
            },
        );
        let err = opt
            .optimize(&opt.sign(&candidate).unwrap(), &reuse, &stats, &mut AlwaysGrant)
            .unwrap_err();
        assert!(err.to_string().contains("CV061"), "{err}");
    }

    #[test]
    fn registry_is_extensible() {
        #[derive(Debug)]
        struct AlwaysFires;
        impl Check for AlwaysFires {
            fn family(&self) -> &'static str {
                "CV09x"
            }
            fn name(&self) -> &'static str {
                "always-fires"
            }
            fn description(&self) -> &'static str {
                "test check"
            }
            fn run(&self, _input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::warning(codes::SPOOL_UNDER_LIMIT, "root", "hi"));
            }
        }
        let mut registry = CheckRegistry::standard();
        let stock = registry.checks().count();
        registry.register(Box::new(AlwaysFires));
        assert_eq!(registry.checks().count(), stock + 1);
        let analyzer = Analyzer::with_registry(&OptimizerConfig::default(), registry);
        let report = analyzer.analyze(&analyzer.input());
        assert_eq!(report.diagnostics.len(), 1);
        assert!(!report.has_errors());
    }
}
