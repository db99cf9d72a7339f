//! The invariant check registry.
//!
//! Each [`Check`] inspects whatever parts of an [`AnalysisInput`] are
//! present and appends [`Diagnostic`]s. Checks never panic and never
//! return early on the first finding — a corrupted plan yields *every*
//! violation it contains, which is what makes the report useful when a
//! production job is being replayed from its annotations.
//!
//! To add a check: implement [`Check`], pick a code in the right family
//! (see [`crate::diag::codes`]), and push it in [`CheckRegistry::standard`].

use crate::containment::prove_containment;
use crate::diag::{codes, Diagnostic, Report};
use cv_common::hash::Sig128;
use cv_common::{HashMap, HashSet};
use cv_data::schema::SchemaRef;
use cv_data::value::DataType;
use cv_engine::containment::build_compensation;
use cv_engine::cost::CostModel;
use cv_engine::expr::AggFunc;
use cv_engine::normalize::normalize;
use cv_engine::optimizer::ReuseContext;
use cv_engine::physical::PhysicalPlan;
use cv_engine::plan::LogicalPlan;
use cv_engine::signature::{plan_signature, template_signature, SigMode, SignatureConfig};
use std::fmt;
use std::sync::Arc;

/// Everything a check may look at. All plan fields are optional so the
/// same registry serves full post-optimize audits (everything present)
/// and the narrower in-optimizer hooks (logical-only / physical-only).
pub struct AnalysisInput<'a> {
    /// The normalized plan *before* view matching/building.
    pub original: Option<&'a Arc<LogicalPlan>>,
    /// The rewritten logical plan (view scans + materialize markers).
    pub optimized: Option<&'a Arc<LogicalPlan>>,
    pub physical: Option<&'a PhysicalPlan>,
    /// The annotations that drove the rewrite.
    pub reuse: Option<&'a ReuseContext>,
    /// Strict signatures with a live, sealed view-store entry, when the
    /// caller has access to the store (the CLI and execution-time audits).
    pub live_views: Option<&'a HashSet<Sig128>>,
    /// A view's defining plan that `cv-ivm` proposes to maintain
    /// incrementally; any CV07x diagnostic vetoes maintenance (the view
    /// falls back to a full rebuild) exactly like CV06x vetoes a
    /// containment match.
    pub maintenance_plan: Option<&'a Arc<LogicalPlan>>,
    pub sig: &'a SignatureConfig,
    pub cost: &'a CostModel,
}

impl<'a> AnalysisInput<'a> {
    pub fn new(sig: &'a SignatureConfig, cost: &'a CostModel) -> AnalysisInput<'a> {
        AnalysisInput {
            original: None,
            optimized: None,
            physical: None,
            reuse: None,
            live_views: None,
            maintenance_plan: None,
            sig,
            cost,
        }
    }
}

/// One plan invariant.
pub trait Check: fmt::Debug + Send + Sync {
    /// The code family this check emits (e.g. `"CV04x"`).
    fn family(&self) -> &'static str;
    fn name(&self) -> &'static str;
    fn description(&self) -> &'static str;
    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of checks, run as one pass.
#[derive(Debug, Default)]
pub struct CheckRegistry {
    checks: Vec<Box<dyn Check>>,
}

impl CheckRegistry {
    /// The full stock rule set.
    pub fn standard() -> CheckRegistry {
        let mut r = CheckRegistry::default();
        r.register(Box::new(SchemaSoundness));
        r.register(Box::new(SignatureDeterminism));
        r.register(Box::new(SubstitutionSoundness));
        r.register(Box::new(SpoolWellFormedness));
        r.register(Box::new(StatsSanity));
        r.register(Box::new(SemanticSubstitution));
        r.register(Box::new(Maintainability));
        r
    }

    pub fn register(&mut self, check: Box<dyn Check>) {
        self.checks.push(check);
    }

    pub fn checks(&self) -> impl Iterator<Item = &dyn Check> {
        self.checks.iter().map(|c| c.as_ref())
    }

    pub fn run(&self, input: &AnalysisInput<'_>) -> Report {
        let mut diagnostics = Vec::new();
        for check in &self.checks {
            check.run(input, &mut diagnostics);
        }
        Report { diagnostics }
    }
}

fn child_path(parent: &str, idx: usize, kind: &str) -> String {
    format!("{parent}/{idx}:{kind}")
}

/// Walk a logical plan with root-to-node paths.
fn walk_logical<'p>(plan: &'p Arc<LogicalPlan>, mut f: impl FnMut(&'p Arc<LogicalPlan>, &str)) {
    fn go<'p>(
        node: &'p Arc<LogicalPlan>,
        path: &str,
        f: &mut impl FnMut(&'p Arc<LogicalPlan>, &str),
    ) {
        f(node, path);
        for (i, c) in node.children().into_iter().enumerate() {
            go(c, &child_path(path, i, c.kind_name()), f);
        }
    }
    go(plan, plan.kind_name(), &mut f);
}

/// Walk a physical plan with root-to-node paths.
fn walk_physical<'p>(plan: &'p PhysicalPlan, mut f: impl FnMut(&'p PhysicalPlan, &str)) {
    fn go<'p>(node: &'p PhysicalPlan, path: &str, f: &mut impl FnMut(&'p PhysicalPlan, &str)) {
        f(node, path);
        for (i, c) in node.children().into_iter().enumerate() {
            go(c, &child_path(path, i, c.kind_name()), f);
        }
    }
    go(plan, plan.kind_name(), &mut f);
}

/// Strict signature → (schema, path) for every signable node of a plan.
fn subexpr_index(
    plan: &Arc<LogicalPlan>,
    sig_cfg: &SignatureConfig,
) -> HashMap<Sig128, (Option<SchemaRef>, String)> {
    let mut map = HashMap::default();
    walk_logical(plan, |node, path| {
        if let Some(sig) = plan_signature(node, sig_cfg, SigMode::Strict) {
            map.entry(sig).or_insert_with(|| (node.schema().ok(), path.to_string()));
        }
    });
    map
}

// ---------------------------------------------------------------------------
// CV01x — schema soundness
// ---------------------------------------------------------------------------

/// Every node's schema must derive without error, and every `ViewScan`
/// must carry exactly the schema of the subexpression it replaced —
/// otherwise the substitution changed what the query computes.
#[derive(Debug)]
pub struct SchemaSoundness;

impl Check for SchemaSoundness {
    fn family(&self) -> &'static str {
        "CV01x"
    }

    fn name(&self) -> &'static str {
        "schema-soundness"
    }

    fn description(&self) -> &'static str {
        "schemas derive cleanly at every node; ViewScan schemas equal the replaced subexpression"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        for plan in [input.original, input.optimized].into_iter().flatten() {
            walk_logical(plan, |node, path| {
                if let Err(e) = node.schema() {
                    out.push(Diagnostic::error(
                        codes::SCHEMA_DERIVE,
                        path,
                        format!("schema derivation failed on {} node: {e}", node.kind_name()),
                    ));
                }
            });
        }
        // ViewScan schemas vs. the original subexpressions they replaced.
        let (Some(original), Some(optimized)) = (input.original, input.optimized) else {
            return;
        };
        let index = subexpr_index(original, input.sig);
        walk_logical(optimized, |node, path| {
            let LogicalPlan::ViewScan { sig, schema, .. } = &**node else {
                return;
            };
            let Some((Some(expected), original_path)) = index.get(sig) else {
                return; // CV032's territory: no such subexpression at all.
            };
            if expected != schema {
                out.push(Diagnostic::error(
                    codes::VIEWSCAN_SCHEMA,
                    path,
                    format!(
                        "ViewScan {} schema {:?} differs from replaced subexpression at {} \
                         with schema {:?}",
                        sig.short(),
                        schema.fields().iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
                        original_path,
                        expected.fields().iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
                    ),
                ));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// CV02x — signature determinism
// ---------------------------------------------------------------------------

/// `normalize` must be a fixpoint and signatures must not drift across
/// re-normalization: annotations are keyed by signature, so any drift
/// silently severs every view a job was granted.
#[derive(Debug)]
pub struct SignatureDeterminism;

impl Check for SignatureDeterminism {
    fn family(&self) -> &'static str {
        "CV02x"
    }

    fn name(&self) -> &'static str {
        "signature-determinism"
    }

    fn description(&self) -> &'static str {
        "normalize() is idempotent and plan_signature() is stable across re-normalization"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(original) = input.original else { return };
        let root = original.kind_name();
        let renormalized = match normalize(original, input.sig) {
            Ok(p) => p,
            Err(e) => {
                out.push(Diagnostic::error(
                    codes::NORMALIZE_IDEMPOTENT,
                    root,
                    format!("re-normalizing an already normalized plan failed: {e}"),
                ));
                return;
            }
        };
        if renormalized != *original {
            out.push(Diagnostic::error(
                codes::NORMALIZE_IDEMPOTENT,
                root,
                "normalize() is not idempotent: re-normalizing the normalized plan \
                 produced a different tree"
                    .to_string(),
            ));
        }
        for mode in [SigMode::Strict, SigMode::Recurring] {
            let before = plan_signature(original, input.sig, mode);
            let after = plan_signature(&renormalized, input.sig, mode);
            if before != after {
                out.push(Diagnostic::error(
                    codes::SIGNATURE_STABLE,
                    root,
                    format!(
                        "{mode:?} signature drifted across re-normalization: \
                         {:?} != {:?}",
                        before.map(|s| s.short()),
                        after.map(|s| s.short()),
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CV03x — substitution soundness
// ---------------------------------------------------------------------------

/// Every `ViewScan` must trace back to (1) a grant in the `ReuseContext`,
/// (2) an actual subexpression of the original plan (which pins down the
/// input GUIDs the view covers), and (3) a live, sealed view-store entry
/// when the caller can see the store.
#[derive(Debug)]
pub struct SubstitutionSoundness;

impl SubstitutionSoundness {
    /// Diagnose a CV032: name the nearest-miss candidate subexpression and
    /// which stage of the match cascade failed for it. A same-schema
    /// subexpression means the strict signature diverged (exact rule); a
    /// merely structurally-largest one means not even template discovery
    /// had a candidate to offer the prover.
    fn nearest_miss(
        original: &Arc<LogicalPlan>,
        viewscan_schema: &SchemaRef,
        sig_cfg: &SignatureConfig,
    ) -> String {
        let mut same_schema: Option<(Sig128, String, usize)> = None;
        let mut largest: Option<(Sig128, String, usize)> = None;
        walk_logical(original, |node, path| {
            let Some(sig) = plan_signature(node, sig_cfg, SigMode::Strict) else {
                return;
            };
            let nodes = node.node_count();
            if node.schema().is_ok_and(|s| s.fields() == viewscan_schema.fields())
                && same_schema.as_ref().is_none_or(|(_, _, n)| nodes > *n)
            {
                same_schema = Some((sig, path.to_string(), nodes));
            }
            if largest.as_ref().is_none_or(|(_, _, n)| nodes > *n) {
                largest = Some((sig, path.to_string(), nodes));
            }
        });
        match (same_schema, largest) {
            (Some((sig, path, _)), _) => format!(
                "; nearest miss: subexpression {} at {path} has an identical schema but a \
                 different strict signature (exact-signature rule failed; no containment \
                 certificate covers it)",
                sig.short()
            ),
            (None, Some((sig, path, _))) => format!(
                "; nearest miss: no schema-compatible subexpression — largest candidate is \
                 {} at {path} (template-discovery rule failed)",
                sig.short()
            ),
            (None, None) => String::new(),
        }
    }
}

impl Check for SubstitutionSoundness {
    fn family(&self) -> &'static str {
        "CV03x"
    }

    fn name(&self) -> &'static str {
        "substitution-soundness"
    }

    fn description(&self) -> &'static str {
        "ViewScans resolve to granted, live views that correspond to real subexpressions"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(optimized) = input.optimized else { return };
        let index = input.original.map(|orig| subexpr_index(orig, input.sig));
        walk_logical(optimized, |node, path| {
            let LogicalPlan::ViewScan { sig, schema, .. } = &**node else { return };
            // A semantic grant is a grant too: compensated substitutions are
            // audited by the SemanticSubstitution check (CV06x) instead.
            let semantic = input.reuse.is_some_and(|r| r.semantic.contains_key(sig));
            if let Some(reuse) = input.reuse {
                if !reuse.available.contains_key(sig) && !semantic {
                    out.push(Diagnostic::error(
                        codes::VIEW_NOT_GRANTED,
                        path,
                        format!(
                            "ViewScan {} was never granted: the ReuseContext has no \
                             available entry for it",
                            sig.short()
                        ),
                    ));
                }
            }
            if let Some(index) = &index {
                if !index.contains_key(sig) && !semantic {
                    let nearest = input
                        .original
                        .map(|orig| Self::nearest_miss(orig, schema, input.sig))
                        .unwrap_or_default();
                    out.push(Diagnostic::error(
                        codes::VIEW_NO_SUBEXPR,
                        path,
                        format!(
                            "ViewScan {} does not correspond to any subexpression of the \
                             original plan; its input GUIDs cannot be validated against \
                             the job's inputs{nearest}",
                            sig.short()
                        ),
                    ));
                }
            }
            if let Some(live) = input.live_views {
                if !live.contains(sig) {
                    out.push(Diagnostic::error(
                        codes::VIEW_NOT_LIVE,
                        path,
                        format!(
                            "ViewScan {} has no live, sealed entry in the view store",
                            sig.short()
                        ),
                    ));
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// CV04x — spool well-formedness
// ---------------------------------------------------------------------------

/// Spools (and their logical `Materialize` markers) must target unique
/// signatures, must not scan the view they are producing, must be backed
/// by a build grant, and should not sit under partial-consumption parents.
#[derive(Debug)]
pub struct SpoolWellFormedness;

impl SpoolWellFormedness {
    fn check_target(
        sig: Sig128,
        path: &str,
        kind: &str,
        seen: &mut HashMap<Sig128, String>,
        reuse: Option<&ReuseContext>,
        under_limit: bool,
        out: &mut Vec<Diagnostic>,
    ) {
        if let Some(first) = seen.get(&sig) {
            out.push(Diagnostic::error(
                codes::SPOOL_DUPLICATE,
                path,
                format!(
                    "{kind} targets signature {} already produced at {first}; \
                     spool targets must be unique within a plan",
                    sig.short()
                ),
            ));
        } else {
            seen.insert(sig, path.to_string());
        }
        if let Some(reuse) = reuse {
            if !reuse.to_build.contains(&sig) {
                out.push(Diagnostic::error(
                    codes::SPOOL_DANGLING,
                    path,
                    format!(
                        "dangling {kind}: signature {} has no build grant in the \
                         ReuseContext",
                        sig.short()
                    ),
                ));
            }
        }
        if under_limit {
            out.push(Diagnostic::warning(
                codes::SPOOL_UNDER_LIMIT,
                path,
                format!(
                    "{kind} {} sits under a Limit; a partial-consumption runtime \
                     would seal a truncated view",
                    sig.short()
                ),
            ));
        }
    }

    fn viewscan_under(node: &LogicalPlan, sig: Sig128) -> bool {
        if matches!(node, LogicalPlan::ViewScan { sig: s, .. } if *s == sig) {
            return true;
        }
        node.children().iter().any(|c| Self::viewscan_under(c, sig))
    }

    fn phys_viewscan_under(node: &PhysicalPlan, sig: Sig128) -> bool {
        if matches!(node, PhysicalPlan::ViewScan { sig: s, .. } if *s == sig) {
            return true;
        }
        node.children().iter().any(|c| Self::phys_viewscan_under(c, sig))
    }

    fn run_logical(plan: &Arc<LogicalPlan>, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let mut seen: HashMap<Sig128, String> = HashMap::default();
        fn go(
            node: &Arc<LogicalPlan>,
            path: &str,
            under_limit: bool,
            seen: &mut HashMap<Sig128, String>,
            input: &AnalysisInput<'_>,
            out: &mut Vec<Diagnostic>,
        ) {
            if let LogicalPlan::Materialize { sig, input: inner } = &**node {
                SpoolWellFormedness::check_target(
                    *sig,
                    path,
                    "Materialize",
                    seen,
                    input.reuse,
                    under_limit,
                    out,
                );
                if SpoolWellFormedness::viewscan_under(inner, *sig) {
                    out.push(Diagnostic::error(
                        codes::SPOOL_CYCLE,
                        path,
                        format!(
                            "cycle: the subtree under Materialize {} scans the very \
                             view it is producing",
                            sig.short()
                        ),
                    ));
                }
            }
            let limited = under_limit || matches!(&**node, LogicalPlan::Limit { .. });
            for (i, c) in node.children().into_iter().enumerate() {
                go(c, &child_path(path, i, c.kind_name()), limited, seen, input, out);
            }
        }
        go(plan, plan.kind_name(), false, &mut seen, input, out);
    }

    fn run_physical(plan: &PhysicalPlan, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let mut seen: HashMap<Sig128, String> = HashMap::default();
        fn go(
            node: &PhysicalPlan,
            path: &str,
            under_limit: bool,
            seen: &mut HashMap<Sig128, String>,
            input: &AnalysisInput<'_>,
            out: &mut Vec<Diagnostic>,
        ) {
            if let PhysicalPlan::Spool { sig, input: inner, .. } = node {
                SpoolWellFormedness::check_target(
                    *sig,
                    path,
                    "Spool",
                    seen,
                    input.reuse,
                    under_limit,
                    out,
                );
                if SpoolWellFormedness::phys_viewscan_under(inner, *sig) {
                    out.push(Diagnostic::error(
                        codes::SPOOL_CYCLE,
                        path,
                        format!(
                            "cycle: the subtree under Spool {} scans the very view \
                             it is producing",
                            sig.short()
                        ),
                    ));
                }
            }
            let limited = under_limit || matches!(node, PhysicalPlan::Limit { .. });
            for (i, c) in node.children().into_iter().enumerate() {
                go(c, &child_path(path, i, c.kind_name()), limited, seen, input, out);
            }
        }
        go(plan, plan.kind_name(), false, &mut seen, input, out);
    }
}

impl Check for SpoolWellFormedness {
    fn family(&self) -> &'static str {
        "CV04x"
    }

    fn name(&self) -> &'static str {
        "spool-well-formedness"
    }

    fn description(&self) -> &'static str {
        "spool targets are unique, granted, acyclic, and fully consumed"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        if let Some(plan) = input.optimized {
            Self::run_logical(plan, input, out);
        }
        if let Some(plan) = input.physical {
            Self::run_physical(plan, input, out);
        }
    }
}

// ---------------------------------------------------------------------------
// CV05x — cost / statistics sanity
// ---------------------------------------------------------------------------

/// Estimates feed partitioning and the reuse cost gate; garbage here turns
/// into over-partitioned stages or wrongly accepted substitutions.
#[derive(Debug)]
pub struct StatsSanity;

impl Check for StatsSanity {
    fn family(&self) -> &'static str {
        "CV05x"
    }

    fn name(&self) -> &'static str {
        "stats-sanity"
    }

    fn description(&self) -> &'static str {
        "estimated rows/bytes are finite and non-negative; total_cost is monotone over children"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(physical) = input.physical else { return };
        walk_physical(physical, |node, path| {
            let est = node.est();
            if !est.rows.is_finite() || est.rows < 0.0 || !est.bytes.is_finite() || est.bytes < 0.0
            {
                out.push(Diagnostic::error(
                    codes::STATS_INVALID,
                    path,
                    format!(
                        "invalid estimate on {} node: rows={}, bytes={}",
                        node.kind_name(),
                        est.rows,
                        est.bytes
                    ),
                ));
            }
            if node.partitions() == 0 {
                out.push(Diagnostic::error(
                    codes::STATS_INVALID,
                    path,
                    format!("{} node has zero partitions", node.kind_name()),
                ));
            }
            let total = node.total_cost(input.cost).total();
            let self_cost = node.self_cost(input.cost).total();
            if !total.is_finite() || !self_cost.is_finite() || self_cost < 0.0 {
                out.push(Diagnostic::error(
                    codes::COST_MONOTONE,
                    path,
                    format!(
                        "non-finite or negative cost on {} node: self={self_cost}, \
                         total={total}",
                        node.kind_name()
                    ),
                ));
                return;
            }
            for child in node.children() {
                let child_total = child.total_cost(input.cost).total();
                if total < child_total {
                    out.push(Diagnostic::error(
                        codes::COST_MONOTONE,
                        path,
                        format!(
                            "total_cost is not monotone: {} node totals {total} but its \
                             {} child totals {child_total}",
                            node.kind_name(),
                            child.kind_name()
                        ),
                    ));
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// CV06x — containment certification
// ---------------------------------------------------------------------------

/// Every semantically substituted `ViewScan` must re-verify from scratch:
/// the scan's schema must be the granted view's schema, and an independent
/// containment proof (run here, not trusted from the optimizer) must
/// reproduce exactly the compensated subtree found in the optimized plan.
/// Any failure vetoes the plan with the refusing rule's CV06x code.
#[derive(Debug)]
pub struct SemanticSubstitution;

impl SemanticSubstitution {
    fn subtree_occurs(hay: &Arc<LogicalPlan>, needle: &Arc<LogicalPlan>) -> bool {
        hay == needle || hay.children().into_iter().any(|c| Self::subtree_occurs(c, needle))
    }
}

impl Check for SemanticSubstitution {
    fn family(&self) -> &'static str {
        "CV06x"
    }

    fn name(&self) -> &'static str {
        "semantic-substitution"
    }

    fn description(&self) -> &'static str {
        "compensated ViewScans re-verify: schema equals the granted view's, and an \
         independent containment proof reproduces the compensated subtree"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let (Some(original), Some(optimized), Some(reuse)) =
            (input.original, input.optimized, input.reuse)
        else {
            return;
        };
        if reuse.semantic.is_empty() {
            return;
        }
        let index = subexpr_index(original, input.sig);
        walk_logical(optimized, |node, path| {
            let LogicalPlan::ViewScan { sig, schema, .. } = &**node else { return };
            if index.contains_key(sig) {
                return; // exact substitution — CV01x/CV03x handle it
            }
            let Some(grant) = reuse.semantic.get(sig) else {
                return; // ungranted — CV031/CV032 territory
            };
            // (1) The scan must expose the *view's* schema: its rows come
            // from the view store, not from the replaced subexpression.
            match grant.plan.schema() {
                Ok(view_schema) if view_schema.fields() == schema.fields() => {}
                Ok(view_schema) => {
                    out.push(Diagnostic::error(
                        codes::COMPENSATION_SCHEMA_MISMATCH,
                        path,
                        format!(
                            "semantic ViewScan {} schema {:?} differs from the granted \
                             view's schema {:?}",
                            sig.short(),
                            schema.names(),
                            view_schema.names(),
                        ),
                    ));
                    return;
                }
                Err(e) => {
                    out.push(Diagnostic::error(
                        codes::COMPENSATION_SCHEMA_MISMATCH,
                        path,
                        format!("granted view plan's schema does not derive: {e}"),
                    ));
                    return;
                }
            }
            // (2) Re-derive the proof against every template-compatible
            // subexpression of the original plan; the synthesized
            // compensation must occur verbatim in the optimized plan.
            let mut first_refusal = None;
            let mut verified = false;
            walk_logical(original, |cand, _| {
                if verified || template_signature(cand, input.sig) != Some(grant.template) {
                    return;
                }
                match prove_containment(&grant.plan, cand, input.sig) {
                    Ok(proof) => {
                        let expected = build_compensation(&proof, node.clone());
                        if Self::subtree_occurs(optimized, &expected) {
                            verified = true;
                        }
                    }
                    Err(refusal) => {
                        if first_refusal.is_none() {
                            first_refusal = Some(refusal);
                        }
                    }
                }
            });
            if verified {
                return;
            }
            match first_refusal {
                Some(refusal) => out.push(Diagnostic::error(
                    refusal.code,
                    path,
                    format!(
                        "semantic substitution of view {} does not re-verify: {refusal}",
                        sig.short()
                    ),
                )),
                None => out.push(Diagnostic::error(
                    codes::COMPENSATION_SCHEMA_MISMATCH,
                    path,
                    format!(
                        "semantic ViewScan {}: no template-compatible subexpression of \
                         the original plan yields this compensated subtree",
                        sig.short()
                    ),
                )),
            }
        });
    }
}

// ---------------------------------------------------------------------------
// CV07x — incremental-maintenance eligibility
// ---------------------------------------------------------------------------

/// Whether a view's defining plan can be maintained incrementally from
/// input deltas with *bit-exact* results. The rules are deliberately
/// narrow: maintenance must reproduce inline execution byte for byte, so
/// anything order-sensitive, non-retractable, or float-accumulating
/// refuses here and `cv-ivm` falls back to a full rebuild. Diagnostics
/// are warnings — an ineligible plan is not corrupt, it just rebuilds.
#[derive(Debug)]
pub struct Maintainability;

impl Maintainability {
    /// Run the full CV07x rule set over one defining plan. Exposed so
    /// `cv-ivm` can gate maintenance without assembling a registry run.
    pub fn check_plan(plan: &Arc<LogicalPlan>, out: &mut Vec<Diagnostic>) {
        let root_path = plan.kind_name();
        let LogicalPlan::Aggregate { group_by, aggs, input } = &**plan else {
            out.push(Diagnostic::warning(
                codes::NOT_AGGREGATE_ROOT,
                root_path,
                format!(
                    "defining plan's root is {}, not Aggregate: no group state to maintain",
                    plan.kind_name()
                ),
            ));
            return;
        };
        // (1) Aggregate functions must have an exact retraction path.
        let input_schema = input.schema().ok();
        for agg in aggs {
            let arg_type = match (&agg.arg, &input_schema) {
                (Some(e), Some(s)) => e.dtype(s).ok(),
                _ => None,
            };
            match agg.func {
                AggFunc::Count => {}
                AggFunc::CountDistinct | AggFunc::Min | AggFunc::Max => {
                    out.push(Diagnostic::warning(
                        codes::NON_MAINTAINABLE_AGGREGATE,
                        root_path,
                        format!(
                            "{:?}({}) has no delete-aware retraction path",
                            agg.func, agg.alias
                        ),
                    ));
                }
                AggFunc::Sum => {
                    if arg_type != Some(DataType::Int) {
                        out.push(Diagnostic::warning(
                            codes::FLOAT_MAINTENANCE_STATE,
                            root_path,
                            format!(
                                "SUM({}) over a {:?} argument cannot keep exact integer \
                                 state; float accumulation is order-sensitive",
                                agg.alias, arg_type
                            ),
                        ));
                    }
                }
                AggFunc::Avg => {
                    if !matches!(arg_type, Some(DataType::Int) | Some(DataType::Date)) {
                        out.push(Diagnostic::warning(
                            codes::FLOAT_MAINTENANCE_STATE,
                            root_path,
                            format!(
                                "AVG({}) over a {:?} argument cannot keep exact \
                                 SUM+COUNT state",
                                agg.alias, arg_type
                            ),
                        ));
                    }
                }
            }
        }
        // (2) Group keys must have exact identity — floats (NaN, ±0.0
        // families under arithmetic) defeat that.
        for (expr, name) in group_by {
            match input_schema.as_ref().map(|s| expr.dtype(s)) {
                Some(Ok(DataType::Float)) => {
                    out.push(Diagnostic::warning(
                        codes::FLOAT_MAINTENANCE_STATE,
                        root_path,
                        format!("group key `{name}` is Float: no exact group identity"),
                    ));
                }
                Some(Ok(_)) => {}
                _ => {
                    out.push(Diagnostic::warning(
                        codes::NON_MAINTAINABLE_OPERATOR,
                        root_path,
                        format!("group key `{name}`'s type cannot be derived"),
                    ));
                }
            }
        }
        // (3) Everything under the aggregate must distribute over deltas.
        walk_logical(input, |node, path| {
            let refusal = match &**node {
                LogicalPlan::Scan { .. }
                | LogicalPlan::Filter { .. }
                | LogicalPlan::Project { .. }
                | LogicalPlan::Union { .. } => None,
                LogicalPlan::Join { kind, .. } => match kind {
                    cv_engine::plan::JoinKind::Inner => None,
                    other => Some(format!("{other:?} join is not delta-bilinear")),
                },
                LogicalPlan::Aggregate { .. } => {
                    Some("nested Aggregate below the maintained root".to_string())
                }
                other => Some(format!("{} does not distribute over deltas", other.kind_name())),
            };
            if let Some(why) = refusal {
                out.push(Diagnostic::warning(
                    codes::NON_MAINTAINABLE_OPERATOR,
                    format!("{root_path}/0:{path}"),
                    why,
                ));
            }
        });
    }
}

impl Check for Maintainability {
    fn family(&self) -> &'static str {
        "CV07x"
    }

    fn name(&self) -> &'static str {
        "maintainability"
    }

    fn description(&self) -> &'static str {
        "a maintenance candidate's defining plan supports bit-exact incremental \
         maintenance (retractable aggregates, integer state, delta-distributing operators)"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let Some(plan) = input.maintenance_plan else { return };
        Self::check_plan(plan, out);
    }
}
