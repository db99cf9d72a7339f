//! The optimizer: normalization → top-down view *matching* → bottom-up view
//! *building* → physical planning (paper Fig. 5, "Query Processing").
//! Normalization and signing happen once, before `optimize`
//! ([`sign_plan`]): the optimizer takes the [`SignedPlan`] the job's
//! annotations were read from.
//!
//! * **Core search / match view**: walk the normalized plan top-down (larger
//!   subexpressions first); whenever a subexpression's strict signature has
//!   a live materialized view, cost the `ViewScan` alternative against
//!   recomputing the subtree and keep the cheaper plan. Matching is a hash
//!   lookup — no containment reasoning (§2.4 "lightweight view matching").
//! * **Semantic widening (GEqO-style cascade)**: on an exact-signature miss,
//!   fall back to a *template signature* lookup (operator parameters
//!   abstracted, children pinned) and ask the installed
//!   [`ContainmentProver`] — the cv-analyzer — to certify that the view's
//!   defining plan contains the candidate. On a proof, substitute the
//!   `ViewScan` plus a synthesized **compensation plan** (residual filter /
//!   rollup / projection); on a refusal, veto and recurse. Cost-gated like
//!   exact matches, and re-verified end-to-end by `PlanVerifier`.
//! * **Follow-up optimization / build view**: walk bottom-up; for each
//!   subexpression whose signature the workload analysis selected for
//!   materialization, acquire the view-creation lock from the insights
//!   service and insert a spool with two consumers.
//! * **Physical planning**: pick join algorithms and partition counts from
//!   the (possibly view-corrected) statistics.

use crate::containment::{build_compensation, ContainmentProver};
use crate::cost::{Cost, CostModel};
use crate::physical::{JoinAlgo, PhysicalPlan};
use crate::plan::{JoinKind, LogicalPlan};
use crate::signature::{plan_sig_pair, sign_plan, SigPair, SignatureConfig, SignedPlan};
use crate::stats::{estimate, ScanStats, Statistics};
use crate::verify::PlanVerifier;
use cv_common::hash::{Sig128, StableHasher};
use cv_common::{CvError, Result};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Compile-time metadata about an available materialized view, served by the
/// insights service through the query annotations (paper Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewMeta {
    pub rows: u64,
    pub bytes: u64,
    /// Whether the view's pages are currently resident in the store's
    /// buffer pool. Cold views are costed at `view_scan_cold` so the
    /// optimizer can prefer recompute for large un-cached views right
    /// after a restart. In-memory stores are always hot.
    pub cold: bool,
}

impl ViewMeta {
    /// A hot (resident) view — the common case and the only case for
    /// in-memory stores.
    pub fn hot(rows: u64, bytes: u64) -> ViewMeta {
        ViewMeta { rows, bytes, cold: false }
    }
}

/// A semantic-match candidate: a live view whose *template* signature
/// matches some subexpression of the job even though its strict signature
/// does not. Carries the view's defining plan so the containment prover can
/// compare operator parameters, and so the `ViewScan` fallback can recompute
/// the *view's* rows (not the candidate's) on a read failure.
#[derive(Clone, Debug)]
pub struct SemanticGrant {
    /// The view's defining logical plan (normalized, as sealed).
    pub plan: Arc<LogicalPlan>,
    pub meta: ViewMeta,
    /// Template signature of the view's defining plan.
    pub template: Sig128,
}

/// The reuse-relevant annotations for one job: which strict signatures have
/// live views, which the selection pipeline wants materialized, and which
/// views are offered for *semantic* (containment-certified) matching.
#[derive(Clone, Debug, Default)]
pub struct ReuseContext {
    pub available: HashMap<Sig128, ViewMeta>,
    pub to_build: HashSet<Sig128>,
    /// Keyed by the view's strict signature. Populated by the insights
    /// service for views that template-match a subexpression of this job
    /// without being exactly available for it.
    pub semantic: HashMap<Sig128, SemanticGrant>,
}

impl ReuseContext {
    pub fn empty() -> ReuseContext {
        ReuseContext::default()
    }

    pub fn is_empty(&self) -> bool {
        self.available.is_empty() && self.to_build.is_empty() && self.semantic.is_empty()
    }
}

/// Grants (or refuses) the exclusive view-creation lock; implemented by the
/// insights service so that concurrent jobs don't materialize the same view
/// twice (paper Fig. 5 "view lock: acquire/release").
pub trait BuildCoordinator {
    fn try_acquire(&mut self, sig: Sig128) -> bool;
}

/// Coordinator that always grants — for single-job contexts and tests.
#[derive(Debug, Default)]
pub struct AlwaysGrant;

impl BuildCoordinator for AlwaysGrant {
    fn try_acquire(&mut self, _sig: Sig128) -> bool {
        true
    }
}

/// Optimizer tuning knobs.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    pub sig: SignatureConfig,
    /// Master switches — part of the paper's multi-level controls (§4).
    pub enable_view_match: bool,
    pub enable_view_build: bool,
    /// Widen view matching beyond exact signatures: template-signature
    /// candidate discovery + containment-certified compensation plans.
    /// No-op unless a [`ContainmentProver`] is installed and the reuse
    /// context carries semantic grants, so turning it on without the rest
    /// of the cascade changes nothing.
    pub enable_semantic_match: bool,
    /// User-facing control for #views per job (paper Fig. 5 left margin).
    pub max_views_per_job: usize,
    /// Rows per stage partition; estimates above this fan out more tasks.
    pub rows_per_partition: f64,
    pub max_partitions: usize,
    /// Smaller join side below this row count → `JoinAlgo::Loop`: charged
    /// as the cluster's nested-loop join over one morsel. It picks a label,
    /// not a kernel: every label runs `exec/join.rs::equi_join`.
    pub loop_join_threshold: f64,
    /// Larger join side above this row count → `JoinAlgo::Merge`: charged
    /// as the cluster's sort-merge over one morsel; below it (and above the
    /// loop bound) `JoinAlgo::Hash` is charged as a hash join over a morsel
    /// per chunk of left rows. Either way the same kernel runs.
    pub merge_join_threshold: f64,
    pub cost: CostModel,
    /// Run the installed [`PlanVerifier`] over every optimized plan.
    /// Defaults to on in debug builds (and thus under `cargo test`),
    /// off in release builds.
    pub verify_plans: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            sig: SignatureConfig::default(),
            enable_view_match: true,
            enable_view_build: true,
            enable_semantic_match: true,
            max_views_per_job: 4,
            rows_per_partition: 2_500.0,
            max_partitions: 256,
            loop_join_threshold: 64.0,
            merge_join_threshold: 120_000.0,
            cost: CostModel::default(),
            verify_plans: cfg!(debug_assertions),
        }
    }
}

/// Result of optimizing one job.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// Final logical plan (normalized, views matched, materialize markers).
    pub logical: Arc<LogicalPlan>,
    pub physical: PhysicalPlan,
    /// Strict signatures of views this plan reuses (exact and semantic).
    pub matched_views: Vec<Sig128>,
    /// Semantic matches: `(view signature, candidate subexpression
    /// signature)` for each containment-certified substitution. Every view
    /// signature here also appears in `matched_views`.
    pub compensated_views: Vec<(Sig128, Sig128)>,
    /// Strict signatures of views this plan will materialize.
    pub built_views: Vec<Sig128>,
    /// Defining logical plans of the views being materialized, captured so
    /// the insights service can later offer them for semantic matching.
    /// Only *pure* plans (no nested `ViewScan`/`Materialize`) are captured —
    /// a compensation fallback must be recomputable standalone.
    pub built_plans: Vec<(Sig128, Arc<LogicalPlan>)>,
    pub est_cost: Cost,
}

/// The query optimizer.
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    pub cfg: OptimizerConfig,
    /// Installed by the embedding application (see `cv-analyzer`); only
    /// consulted when [`OptimizerConfig::verify_plans`] is set.
    pub verifier: Option<Arc<dyn PlanVerifier>>,
    /// Observability sink for view-match / view-build decisions; no-op when
    /// absent. Installed like the verifier, by the embedding application.
    pub obs: Option<Arc<dyn crate::obs::ObsSink>>,
    /// Containment prover certifying semantic view matches (see
    /// `cv-analyzer`). Semantic matching is disabled while absent — the
    /// optimizer never substitutes a compensation plan it cannot certify.
    pub prover: Option<Arc<dyn ContainmentProver>>,
}

impl Optimizer {
    pub fn new(cfg: OptimizerConfig) -> Optimizer {
        Optimizer { cfg, verifier: None, obs: None, prover: None }
    }

    pub fn set_verifier(&mut self, verifier: Arc<dyn PlanVerifier>) {
        self.verifier = Some(verifier);
    }

    pub fn set_prover(&mut self, prover: Arc<dyn ContainmentProver>) {
        self.prover = Some(prover);
    }

    fn active_verifier(&self) -> Option<&dyn PlanVerifier> {
        if self.cfg.verify_plans {
            self.verifier.as_deref()
        } else {
            None
        }
    }

    /// Normalize and sign a bound plan under this optimizer's signature
    /// configuration (see [`sign_plan`]).
    pub fn sign(&self, plan: &Arc<LogicalPlan>) -> Result<SignedPlan> {
        sign_plan(plan, &self.cfg.sig)
    }

    /// Optimize a signed plan under the given reuse annotations. View
    /// matching reads each node's signatures off `signed`; view building
    /// signs only the nodes matching rewrote, from their children.
    pub fn optimize(
        &self,
        signed: &SignedPlan,
        reuse: &ReuseContext,
        scan_stats: ScanStats<'_>,
        coordinator: &mut dyn BuildCoordinator,
    ) -> Result<OptimizeOutcome> {
        let normalized = &signed.plan;
        // Build-side decisions come from the pre-substitution plan so view
        // reuse differences between runs cannot flip them.
        let mut swaps = HashMap::new();
        self.collect_swap_decisions(normalized, scan_stats, &mut swaps);

        let mut matched = Vec::new();
        let mut compensated = Vec::new();
        let mut replaced = HashMap::new();
        let matchable =
            !reuse.available.is_empty() || (self.semantic_active() && !reuse.semantic.is_empty());
        let with_views = if self.cfg.enable_view_match && matchable {
            self.match_views(
                normalized,
                signed,
                reuse,
                scan_stats,
                &mut matched,
                &mut compensated,
                &mut replaced,
                &swaps,
            )?
        } else {
            normalized.clone()
        };

        let mut built = Vec::new();
        let mut built_plans = Vec::new();
        let final_logical = if self.cfg.enable_view_build && !reuse.to_build.is_empty() {
            self.insert_builds(
                &with_views,
                signed,
                reuse,
                coordinator,
                &mut built,
                &mut built_plans,
            )?
            .0
        } else {
            with_views
        };

        if let Some(verifier) = self.active_verifier() {
            verifier.verify_logical(normalized, &final_logical, reuse)?;
        }
        let mut physical = self.to_physical_with(&final_logical, scan_stats, &swaps)?;
        if !replaced.is_empty() {
            // Views are throw-away artifacts: each ViewScan carries the
            // lowered original subexpression so the executor can recompute
            // if the view is gone or corrupt at run time. Attached after
            // verification — the fallback is not a plan child and must not
            // change costs, stages, or analyzer output.
            self.attach_fallbacks(&mut physical, &replaced, scan_stats, &swaps)?;
        }
        let est_cost = physical.total_cost(&self.cfg.cost);
        Ok(OptimizeOutcome {
            logical: final_logical,
            physical,
            matched_views: matched,
            compensated_views: compensated,
            built_views: built,
            built_plans,
            est_cost,
        })
    }

    fn semantic_active(&self) -> bool {
        self.cfg.enable_semantic_match && self.prover.is_some()
    }

    /// Top-down matching: try the largest subexpressions first; on a match
    /// the subtree is replaced and not descended into. Exact signature
    /// lookups run first (cheap hash probe); on a miss, the semantic cascade
    /// widens the search via template signatures and the containment prover.
    #[allow(clippy::too_many_arguments)]
    fn match_views(
        &self,
        node: &Arc<LogicalPlan>,
        signed: &SignedPlan,
        reuse: &ReuseContext,
        scan_stats: ScanStats<'_>,
        matched: &mut Vec<Sig128>,
        compensated: &mut Vec<(Sig128, Sig128)>,
        replaced: &mut HashMap<Sig128, Arc<LogicalPlan>>,
        swaps: &HashMap<Sig128, bool>,
    ) -> Result<Arc<LogicalPlan>> {
        let replaceable = !matches!(
            &**node,
            LogicalPlan::Scan { .. }
                | LogicalPlan::ViewScan { .. }
                | LogicalPlan::Materialize { .. }
        );
        if replaceable {
            // Every node reached here is a node of the signed plan, so a
            // memo miss means the node is unsignable.
            if let Some(sub) = signed.subexpr(node) {
                let sig = sub.strict;
                if let Some(meta) = reuse.available.get(&sig) {
                    // Cost the alternative: the plan using the materialized
                    // view is chosen only if it is cheaper (paper §2.3).
                    let recompute =
                        self.lower(node, scan_stats, swaps)?.total_cost(&self.cfg.cost).total();
                    let reuse_cost = if meta.cold {
                        self.cfg.cost.view_scan_cold(meta.bytes as f64).total()
                    } else {
                        self.cfg.cost.view_scan(meta.bytes as f64).total()
                    };
                    if reuse_cost < recompute {
                        if let Some(obs) = &self.obs {
                            obs.view_matched(sig);
                        }
                        matched.push(sig);
                        replaced.entry(sig).or_insert_with(|| node.clone());
                        return Ok(Arc::new(LogicalPlan::ViewScan {
                            sig,
                            schema: node.schema()?,
                            rows: meta.rows,
                            bytes: meta.bytes,
                        }));
                    }
                } else if let Some(sub) = self.match_semantic(
                    node,
                    sig,
                    sub.template,
                    reuse,
                    scan_stats,
                    matched,
                    compensated,
                    replaced,
                    swaps,
                )? {
                    return Ok(sub);
                }
            }
        }
        // No match here: recurse.
        let new_children: Result<Vec<Arc<LogicalPlan>>> = node
            .children()
            .into_iter()
            .map(|c| {
                self.match_views(
                    c,
                    signed,
                    reuse,
                    scan_stats,
                    matched,
                    compensated,
                    replaced,
                    swaps,
                )
            })
            .collect();
        rebuild(node, new_children?)
    }

    /// Semantic step of the match cascade: find views whose template
    /// signature equals this node's, ask the prover to certify containment,
    /// and substitute the cheapest certified compensation plan. Candidates
    /// are visited in view-signature order so the result is deterministic
    /// regardless of `HashMap` iteration order.
    #[allow(clippy::too_many_arguments)]
    fn match_semantic(
        &self,
        node: &Arc<LogicalPlan>,
        node_sig: Sig128,
        template: Sig128,
        reuse: &ReuseContext,
        scan_stats: ScanStats<'_>,
        matched: &mut Vec<Sig128>,
        compensated: &mut Vec<(Sig128, Sig128)>,
        replaced: &mut HashMap<Sig128, Arc<LogicalPlan>>,
        swaps: &HashMap<Sig128, bool>,
    ) -> Result<Option<Arc<LogicalPlan>>> {
        if !self.semantic_active() || reuse.semantic.is_empty() {
            return Ok(None);
        }
        let Some(prover) = self.prover.as_deref() else {
            return Ok(None);
        };
        let mut grants: Vec<(&Sig128, &SemanticGrant)> = reuse
            .semantic
            .iter()
            .filter(|(view_sig, g)| g.template == template && **view_sig != node_sig)
            .collect();
        grants.sort_by_key(|(view_sig, _)| **view_sig);
        // What recomputing the unchanged subtree costs, lowered once for
        // every proven grant.
        let mut recompute = None;
        for (&view_sig, grant) in grants {
            if let Some(obs) = &self.obs {
                obs.semantic_considered(view_sig);
            }
            let proof = match prover.prove(&grant.plan, node) {
                Ok(proof) => proof,
                Err(refusal) => {
                    if let Some(obs) = &self.obs {
                        obs.semantic_vetoed(view_sig, refusal.code);
                    }
                    continue;
                }
            };
            let view_scan = Arc::new(LogicalPlan::ViewScan {
                sig: view_sig,
                schema: grant.plan.schema()?,
                rows: grant.meta.rows,
                bytes: grant.meta.bytes,
            });
            let substitute = build_compensation(&proof, view_scan);
            // Cost gate, like exact matching: the compensated plan (view
            // scan + residual operators) must beat recomputing the subtree.
            let recompute = match recompute {
                Some(cost) => cost,
                None => {
                    let cost =
                        self.lower(node, scan_stats, swaps)?.total_cost(&self.cfg.cost).total();
                    *recompute.insert(cost)
                }
            };
            let reuse_cost =
                self.lower(&substitute, scan_stats, swaps)?.total_cost(&self.cfg.cost).total();
            if reuse_cost < recompute {
                if let Some(obs) = &self.obs {
                    obs.semantic_proven(view_sig);
                }
                matched.push(view_sig);
                compensated.push((view_sig, node_sig));
                // The run-time fallback recomputes the *view's* rows (the
                // compensation operators above the ViewScan still apply).
                replaced.entry(view_sig).or_insert_with(|| grant.plan.clone());
                return Ok(Some(substitute));
            }
        }
        Ok(None)
    }

    /// Lower each matched view's original subexpression and hang it off the
    /// corresponding physical `ViewScan` as its recompute fallback.
    fn attach_fallbacks(
        &self,
        plan: &mut PhysicalPlan,
        replaced: &HashMap<Sig128, Arc<LogicalPlan>>,
        scan_stats: ScanStats<'_>,
        swaps: &HashMap<Sig128, bool>,
    ) -> Result<()> {
        if let PhysicalPlan::ViewScan { sig, fallback, .. } = plan {
            if fallback.is_none() {
                if let Some(original) = replaced.get(sig) {
                    *fallback = Some(Box::new(self.lower(original, scan_stats, swaps)?));
                }
            }
            return Ok(());
        }
        for child in plan.children_mut() {
            self.attach_fallbacks(child, replaced, scan_stats, swaps)?;
        }
        Ok(())
    }

    /// Bottom-up build insertion: wrap selected subexpressions in
    /// `Materialize`, bounded by `max_views_per_job`, gated by the lock.
    /// Returns the rebuilt node with its signatures (`None`: unsignable).
    /// A `Materialize` signs as its input, so a rebuilt node signs as
    /// `node` did: read off the memo when matching left `node` as signed,
    /// else hashed once from its children's pairs.
    #[allow(clippy::too_many_arguments)]
    fn insert_builds(
        &self,
        node: &Arc<LogicalPlan>,
        signed: &SignedPlan,
        reuse: &ReuseContext,
        coordinator: &mut dyn BuildCoordinator,
        built: &mut Vec<Sig128>,
        built_plans: &mut Vec<(Sig128, Arc<LogicalPlan>)>,
    ) -> Result<(Arc<LogicalPlan>, Option<SigPair>)> {
        let mut new_children = Vec::new();
        let mut pairs = Vec::new();
        for c in node.children() {
            let (child, pair) =
                self.insert_builds(c, signed, reuse, coordinator, built, built_plans)?;
            new_children.push(child);
            pairs.extend(pair);
        }
        let signable = pairs.len() == new_children.len();
        let rebuilt = rebuild(node, new_children)?;
        let pair = match signed.subexpr(node) {
            Some(sub) => Some(SigPair { strict: sub.strict, recurring: sub.recurring }),
            None if signable => signed.signer.node_sig(node, &pairs),
            None => None,
        };

        let eligible = !matches!(
            &*rebuilt,
            LogicalPlan::Scan { .. }
                | LogicalPlan::ViewScan { .. }
                | LogicalPlan::Materialize { .. }
        );
        if let Some(SigPair { strict: sig, .. }) = pair.filter(|_| eligible) {
            if built.len() < self.cfg.max_views_per_job
                && reuse.to_build.contains(&sig)
                && !reuse.available.contains_key(&sig)
                && !built.contains(&sig)
                && coordinator.try_acquire(sig)
            {
                if let Some(obs) = &self.obs {
                    obs.view_build_inserted(sig);
                }
                built.push(sig);
                if plan_is_pure(&rebuilt) {
                    // Capture the defining plan for future semantic
                    // grants. Plans that themselves contain ViewScans
                    // or nested Materialize markers are skipped: a
                    // semantic fallback must recompute standalone.
                    built_plans.push((sig, rebuilt.clone()));
                }
                return Ok((Arc::new(LogicalPlan::Materialize { sig, input: rebuilt }), pair));
            }
        }
        Ok((rebuilt, pair))
    }

    fn partitions_for(&self, est: Statistics) -> usize {
        ((est.rows / self.cfg.rows_per_partition).ceil() as usize).clamp(1, self.cfg.max_partitions)
    }

    /// Structural identity of an inner join for build-side keying: the
    /// equi-join columns plus both child *schemas*. Unlike a subtree
    /// signature, this survives any result-preserving substitution
    /// underneath: an exact `ViewScan` swap keeps subtree signatures (a
    /// view signs as the computation it replaced), but a semantic
    /// compensation — view scan plus residual operators — signs as its
    /// own new shape, so signature keying would miss only in the
    /// semantic-on run and re-introduce the row-order divergence the
    /// swap map exists to prevent. Substitutes are schema-preserving by
    /// contract, so this key is stable across every reuse configuration.
    /// Two distinct joins that collide on it share one decision (the
    /// last collected wins) — possibly suboptimal for one of them, but
    /// identical in every run, which is the property that matters.
    fn join_swap_key(
        on: &[(String, String)],
        left: &Arc<LogicalPlan>,
        right: &Arc<LogicalPlan>,
    ) -> Option<Sig128> {
        let (ls, rs) = (left.schema().ok()?, right.schema().ok()?);
        let mut h = StableHasher::with_domain("cv-join-swap-key");
        for (l, r) in on {
            h.write_str(l);
            h.write_str(r);
        }
        for schema in [&ls, &rs] {
            h.write_u64(schema.len() as u64);
            for f in schema.fields() {
                h.write_str(&f.name);
                h.write_str(f.dtype.name());
            }
        }
        Some(h.finish128())
    }

    /// Decide hash-join build sides on a *substitution-free* plan. For
    /// every inner join, the side with the smaller estimated row count
    /// becomes the build (right) side; the decision is keyed by the
    /// join's structural [`join_swap_key`], which later view substitution
    /// (exact or compensated) preserves. Estimates over a pure plan
    /// depend only on base-table stats, so every driver — and every
    /// view/cache configuration — derives the identical map for the same
    /// logical job. Deciding on the substituted plan instead would let a
    /// `ViewScan`'s *actual* row count flip the comparison wherever one
    /// run reused a view and another computed inline, and a flipped
    /// build side changes join output row order — observable through
    /// order-sensitive float aggregation.
    fn collect_swap_decisions(
        &self,
        node: &Arc<LogicalPlan>,
        scan_stats: ScanStats<'_>,
        out: &mut HashMap<Sig128, bool>,
    ) {
        if let LogicalPlan::Join { left, right, on, kind: JoinKind::Inner } = &**node {
            if let Some(key) = Self::join_swap_key(on, left, right) {
                let l = estimate(left, scan_stats);
                let r = estimate(right, scan_stats);
                out.insert(key, l.rows < r.rows);
            }
        }
        for child in node.children() {
            self.collect_swap_decisions(child, scan_stats, out);
        }
    }

    /// Lower a logical plan to physical operators. Runs the installed
    /// [`PlanVerifier`] over the lowered plan when verification is on.
    /// Build-side decisions are collected from `node` itself — exact when
    /// the plan is substitution-free (tests, scratch engines); `optimize`
    /// collects them from the normalized plan before matching instead.
    pub fn to_physical(
        &self,
        node: &Arc<LogicalPlan>,
        scan_stats: ScanStats<'_>,
    ) -> Result<PhysicalPlan> {
        let mut swaps = HashMap::new();
        self.collect_swap_decisions(node, scan_stats, &mut swaps);
        self.to_physical_with(node, scan_stats, &swaps)
    }

    fn to_physical_with(
        &self,
        node: &Arc<LogicalPlan>,
        scan_stats: ScanStats<'_>,
        swaps: &HashMap<Sig128, bool>,
    ) -> Result<PhysicalPlan> {
        let physical = self.lower(node, scan_stats, swaps)?;
        if let Some(verifier) = self.active_verifier() {
            verifier.verify_physical(&physical)?;
        }
        Ok(physical)
    }

    /// The recursive lowering step (costing probes call this directly so
    /// alternative subplans aren't re-verified mid-search).
    fn lower(
        &self,
        node: &Arc<LogicalPlan>,
        scan_stats: ScanStats<'_>,
        swaps: &HashMap<Sig128, bool>,
    ) -> Result<PhysicalPlan> {
        let est = estimate(node, scan_stats);
        let partitions = self.partitions_for(est);
        Ok(match &**node {
            LogicalPlan::Scan { dataset, guid, schema } => PhysicalPlan::TableScan {
                dataset: dataset.clone(),
                guid: *guid,
                schema: schema.clone(),
                est,
                partitions,
            },
            LogicalPlan::ViewScan { sig, schema, rows, bytes } => PhysicalPlan::ViewScan {
                sig: *sig,
                schema: schema.clone(),
                est: Statistics::accurate(*rows as f64, *bytes as f64),
                partitions,
                fallback: None, // attached post-lowering by `attach_fallbacks`
            },
            LogicalPlan::Filter { predicate, input } => PhysicalPlan::Filter {
                predicate: predicate.clone(),
                input: Box::new(self.lower(input, scan_stats, swaps)?),
                est,
                partitions,
            },
            LogicalPlan::Project { exprs, input } => PhysicalPlan::Project {
                exprs: exprs.clone(),
                schema: node.schema()?,
                input: Box::new(self.lower(input, scan_stats, swaps)?),
                est,
                partitions,
            },
            LogicalPlan::Join { left, right, on, kind } => {
                let mut l = self.lower(left, scan_stats, swaps)?;
                let mut r = self.lower(right, scan_stats, swaps)?;
                let mut on = on.clone();
                // The hash build is the right side: for commutative joins,
                // put the smaller estimated input there. The normalizer
                // orders sides by signature (for plan identity), which is
                // arbitrary w.r.t. size, and building on the bigger side
                // costs more. The decision comes from `swaps`, computed on
                // the *pre-substitution* plan (see
                // `collect_swap_decisions`): never view-state-dependent,
                // so every driver and every reuse configuration lowers the
                // same logical join the same way and join output row order
                // cannot diverge between runs. The executor restores the
                // logical column order for swapped joins, so the swap
                // never leaks into output schemas.
                let swapped = *kind == JoinKind::Inner
                    && Self::join_swap_key(&on, left, right)
                        .is_some_and(|key| swaps.get(&key).copied().unwrap_or(false));
                if swapped {
                    std::mem::swap(&mut l, &mut r);
                    for pair in &mut on {
                        std::mem::swap(&mut pair.0, &mut pair.1);
                    }
                }
                let l_rows = l.est().rows;
                let r_rows = r.est().rows;
                let algo = if l_rows.min(r_rows) <= self.cfg.loop_join_threshold {
                    JoinAlgo::Loop
                } else if l_rows.max(r_rows) >= self.cfg.merge_join_threshold {
                    JoinAlgo::Merge
                } else {
                    JoinAlgo::Hash
                };
                PhysicalPlan::Join {
                    algo,
                    kind: *kind,
                    on,
                    left: Box::new(l),
                    right: Box::new(r),
                    est,
                    partitions,
                    swapped,
                }
            }
            LogicalPlan::Aggregate { group_by, aggs, input } => PhysicalPlan::HashAggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                schema: node.schema()?,
                input: Box::new(self.lower(input, scan_stats, swaps)?),
                est,
                partitions,
            },
            LogicalPlan::Union { inputs } => PhysicalPlan::Union {
                inputs: inputs
                    .iter()
                    .map(|i| self.lower(i, scan_stats, swaps))
                    .collect::<Result<Vec<_>>>()?,
                est,
                partitions,
            },
            LogicalPlan::Sort { keys, input } => PhysicalPlan::Sort {
                keys: keys.clone(),
                input: Box::new(self.lower(input, scan_stats, swaps)?),
                est,
                partitions,
            },
            LogicalPlan::Limit { n, input } => PhysicalPlan::Limit {
                n: *n,
                input: Box::new(self.lower(input, scan_stats, swaps)?),
                est,
            },
            LogicalPlan::Udo { spec, schema, input } => PhysicalPlan::Udo {
                spec: spec.clone(),
                schema: schema.clone(),
                input: Box::new(self.lower(input, scan_stats, swaps)?),
                est,
                partitions,
            },
            LogicalPlan::Materialize { sig, input } => {
                let pair = plan_sig_pair(input, &self.cfg.sig).ok_or_else(|| {
                    CvError::internal("Materialize wrapped an unsignable subexpression")
                })?;
                debug_assert_eq!(pair.strict, *sig);
                PhysicalPlan::Spool {
                    sig: *sig,
                    recurring_sig: pair.recurring,
                    input_guids: input.input_guids(),
                    input: Box::new(self.lower(input, scan_stats, swaps)?),
                    est,
                    partitions,
                }
            }
        })
    }
}

/// `node` with `children` in place of its own; `node` itself when every
/// child is the one it had, so rewrites that change nothing keep the
/// signed plan's nodes (and their memo entries).
fn rebuild(node: &Arc<LogicalPlan>, children: Vec<Arc<LogicalPlan>>) -> Result<Arc<LogicalPlan>> {
    if node.children().into_iter().zip(&children).all(|(old, new)| Arc::ptr_eq(old, new)) {
        return Ok(node.clone());
    }
    Ok(Arc::new(node.with_children(children)?))
}

/// True when a plan contains no `ViewScan` or `Materialize` node — i.e. it
/// can be recomputed standalone, without depending on other views.
fn plan_is_pure(plan: &Arc<LogicalPlan>) -> bool {
    !matches!(&**plan, LogicalPlan::ViewScan { .. } | LogicalPlan::Materialize { .. })
        && plan.children().into_iter().all(plan_is_pure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, AggExpr, AggFunc};
    use crate::normalize::normalize;
    use crate::plan::JoinKind;
    use crate::signature::{plan_signature, template_signature, SigMode};
    use cv_common::ids::VersionGuid;
    use cv_data::schema::{Field, Schema};
    use cv_data::value::DataType;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Scan {
            dataset: name.to_string(),
            guid: VersionGuid(1),
            schema: Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect())
                .unwrap()
                .into_ref(),
        })
    }

    fn sales() -> Arc<LogicalPlan> {
        scan("sales", &[("s_cust", DataType::Int), ("price", DataType::Float)])
    }

    fn customer() -> Arc<LogicalPlan> {
        scan("customer", &[("c_id", DataType::Int), ("seg", DataType::Str)])
    }

    fn scan_stats(name: &str) -> Option<(f64, f64)> {
        match name {
            "sales" => Some((200_000.0, 20_000_000.0)),
            "customer" => Some((10_000.0, 400_000.0)),
            _ => None,
        }
    }

    fn shared_subplan() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Join {
            left: sales(),
            right: Arc::new(LogicalPlan::Filter {
                predicate: col("seg").eq(lit("asia")),
                input: customer(),
            }),
            on: vec![("s_cust".into(), "c_id".into())],
            kind: JoinKind::Inner,
        })
    }

    fn query() -> Arc<LogicalPlan> {
        Arc::new(LogicalPlan::Aggregate {
            group_by: vec![(col("s_cust"), "cust".to_string())],
            aggs: vec![AggExpr::new(AggFunc::Avg, col("price"), "avg_price")],
            input: shared_subplan(),
        })
    }

    fn optimizer() -> Optimizer {
        Optimizer::new(OptimizerConfig::default())
    }

    fn shared_sig(opt: &Optimizer) -> Sig128 {
        // Signature of the *normalized* shared subplan — annotations come
        // from workload analysis which sees normalized plans.
        let n = normalize(&shared_subplan(), &opt.cfg.sig).unwrap();
        plan_signature(&n, &opt.cfg.sig, SigMode::Strict).unwrap()
    }

    #[test]
    fn no_annotations_means_plain_plan() {
        let opt = optimizer();
        let out = opt
            .optimize(
                &opt.sign(&query()).unwrap(),
                &ReuseContext::empty(),
                &scan_stats,
                &mut AlwaysGrant,
            )
            .unwrap();
        assert!(out.matched_views.is_empty());
        assert!(out.built_views.is_empty());
        assert!(!out.logical.uses_views());
        assert!(out.est_cost.total() > 0.0);
    }

    #[test]
    fn build_inserts_spool() {
        let opt = optimizer();
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(shared_sig(&opt));
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert_eq!(out.built_views.len(), 1);
        // A Spool appears in the physical plan.
        let tree = out.physical.display_tree();
        assert!(tree.contains("Spool"), "physical plan:\n{tree}");
    }

    #[test]
    fn match_replaces_subtree_with_viewscan() {
        let opt = optimizer();
        let sig = shared_sig(&opt);
        let mut reuse = ReuseContext::empty();
        reuse.available.insert(sig, ViewMeta::hot(12_000, 480_000));
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert_eq!(out.matched_views, vec![sig]);
        assert!(out.logical.uses_views());
        let tree = out.physical.display_tree();
        assert!(tree.contains("ViewScan"), "physical plan:\n{tree}");
        // The base scans are gone.
        assert!(!tree.contains("TableScan"), "physical plan:\n{tree}");
    }

    #[test]
    fn matched_viewscan_carries_recompute_fallback() {
        let opt = optimizer();
        let sig = shared_sig(&opt);
        let mut reuse = ReuseContext::empty();
        reuse.available.insert(sig, ViewMeta::hot(12_000, 480_000));
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();

        fn find_viewscan(p: &PhysicalPlan) -> Option<&PhysicalPlan> {
            if matches!(p, PhysicalPlan::ViewScan { .. }) {
                return Some(p);
            }
            p.children().iter().find_map(|c| find_viewscan(c))
        }
        let scan = find_viewscan(&out.physical).expect("plan has a ViewScan");
        let PhysicalPlan::ViewScan { fallback, .. } = scan else { unreachable!() };
        let fb = fallback.as_ref().expect("matched ViewScan carries a fallback");
        // The fallback is the lowered original subexpression…
        assert!(fb.display_tree().contains("TableScan"));
        // …but stays invisible to the plan's own shape and costing.
        assert!(scan.children().is_empty());
        assert_eq!(scan.node_count(), 1);
        assert!(!out.physical.display_tree().contains("TableScan"));
    }

    #[test]
    fn match_is_cost_gated() {
        let opt = optimizer();
        let sig = shared_sig(&opt);
        let mut reuse = ReuseContext::empty();
        // A pathological view that is *bigger* than re-reading everything:
        // reuse must be rejected by costing.
        reuse.available.insert(sig, ViewMeta::hot(1 << 30, 1 << 62));
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out.matched_views.is_empty());
        assert!(!out.logical.uses_views());
    }

    #[test]
    fn reused_plan_is_cheaper() {
        let opt = optimizer();
        let sig = shared_sig(&opt);
        let baseline = opt
            .optimize(
                &opt.sign(&query()).unwrap(),
                &ReuseContext::empty(),
                &scan_stats,
                &mut AlwaysGrant,
            )
            .unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.available.insert(sig, ViewMeta::hot(12_000, 480_000));
        let reused = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(
            reused.est_cost.total() < baseline.est_cost.total(),
            "reuse {} !< baseline {}",
            reused.est_cost.total(),
            baseline.est_cost.total()
        );
    }

    #[test]
    fn max_views_per_job_enforced() {
        let mut cfg = OptimizerConfig::default();
        cfg.max_views_per_job = 0;
        let opt = Optimizer::new(cfg);
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(shared_sig(&opt));
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out.built_views.is_empty());
    }

    #[test]
    fn lock_denial_prevents_build() {
        struct DenyAll;
        impl BuildCoordinator for DenyAll {
            fn try_acquire(&mut self, _s: Sig128) -> bool {
                false
            }
        }
        let opt = optimizer();
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(shared_sig(&opt));
        let out =
            opt.optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut DenyAll).unwrap();
        assert!(out.built_views.is_empty());
        assert!(!out.physical.display_tree().contains("Spool"));
    }

    #[test]
    fn disabled_switches_do_nothing() {
        let mut cfg = OptimizerConfig::default();
        cfg.enable_view_match = false;
        cfg.enable_view_build = false;
        let opt = Optimizer::new(cfg);
        let sig = shared_sig(&opt);
        let mut reuse = ReuseContext::empty();
        reuse.available.insert(sig, ViewMeta::hot(10, 100));
        reuse.to_build.insert(sig);
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out.matched_views.is_empty());
        assert!(out.built_views.is_empty());
    }

    #[test]
    fn available_view_not_rebuilt() {
        let opt = optimizer();
        let sig = shared_sig(&opt);
        let mut reuse = ReuseContext::empty();
        reuse.available.insert(sig, ViewMeta::hot(12_000, 480_000));
        reuse.to_build.insert(sig);
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        // Matched, and NOT rebuilt (it's already materialized).
        assert_eq!(out.matched_views, vec![sig]);
        assert!(out.built_views.is_empty());
    }

    /// Prover stub for engine-level plumbing tests: the real rules live in
    /// cv-analyzer. Proves any Filter-over-Filter pair with the candidate's
    /// own predicate as residual (sound when the view's predicate is
    /// implied), refuses everything else.
    #[derive(Debug)]
    struct FilterResidualProver;

    impl crate::containment::ContainmentProver for FilterResidualProver {
        fn prove(
            &self,
            view: &Arc<LogicalPlan>,
            candidate: &Arc<LogicalPlan>,
        ) -> std::result::Result<
            crate::containment::ContainmentProof,
            crate::containment::ContainmentRefusal,
        > {
            match (&**view, &**candidate) {
                (LogicalPlan::Filter { .. }, LogicalPlan::Filter { predicate, .. }) => {
                    Ok(crate::containment::ContainmentProof {
                        residual_filter: Some(predicate.clone()),
                        rules: vec!["predicate-implication"],
                        ..Default::default()
                    })
                }
                _ => Err(crate::containment::ContainmentRefusal {
                    code: "CV061",
                    rule: "predicate-implication",
                    reason: "stub refuses non-filter pairs".into(),
                }),
            }
        }
    }

    /// Semantic-match fixture: a view over `customer` filtered to one
    /// segment, and a candidate query filtering to another — same template,
    /// different strict signatures.
    fn semantic_fixture(opt: &Optimizer) -> (Sig128, ReuseContext, Arc<LogicalPlan>) {
        let view_plan = normalize(
            &Arc::new(LogicalPlan::Filter {
                predicate: col("seg").eq(lit("asia")),
                input: customer(),
            }),
            &opt.cfg.sig,
        )
        .unwrap();
        let view_sig = plan_signature(&view_plan, &opt.cfg.sig, SigMode::Strict).unwrap();
        let template = template_signature(&view_plan, &opt.cfg.sig).unwrap();
        let mut reuse = ReuseContext::empty();
        reuse.semantic.insert(
            view_sig,
            SemanticGrant { plan: view_plan, meta: ViewMeta::hot(3_000, 120_000), template },
        );
        let candidate = Arc::new(LogicalPlan::Filter {
            predicate: col("seg").eq(lit("emea")),
            input: customer(),
        });
        (view_sig, reuse, candidate)
    }

    #[test]
    fn semantic_match_substitutes_compensation() {
        let mut opt = optimizer();
        opt.set_prover(Arc::new(FilterResidualProver));
        let (view_sig, reuse, candidate) = semantic_fixture(&opt);
        let normalized = normalize(&candidate, &opt.cfg.sig).unwrap();
        let cand_sig = plan_signature(&normalized, &opt.cfg.sig, SigMode::Strict).unwrap();

        let out = opt
            .optimize(&opt.sign(&candidate).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert_eq!(out.matched_views, vec![view_sig]);
        assert_eq!(out.compensated_views, vec![(view_sig, cand_sig)]);
        // The compensation is a residual Filter over the ViewScan.
        let LogicalPlan::Filter { input, .. } = &*out.logical else {
            panic!("expected residual filter, got {:?}", out.logical);
        };
        assert!(matches!(&**input, LogicalPlan::ViewScan { sig, .. } if *sig == view_sig));
        // The fallback recomputes the *view's* plan under the residual.
        let tree = out.physical.display_tree();
        assert!(tree.contains("ViewScan"), "physical plan:\n{tree}");
    }

    #[test]
    fn semantic_match_requires_switch_and_prover() {
        // Prover installed but switch off → no substitution.
        let mut cfg = OptimizerConfig::default();
        cfg.enable_semantic_match = false;
        let mut opt = Optimizer::new(cfg);
        opt.set_prover(Arc::new(FilterResidualProver));
        let (_, reuse, candidate) = semantic_fixture(&opt);
        let out = opt
            .optimize(&opt.sign(&candidate).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out.matched_views.is_empty());
        assert!(out.compensated_views.is_empty());

        // Switch on but no prover installed → no substitution either.
        let opt2 = optimizer();
        let (_, reuse2, candidate2) = semantic_fixture(&opt2);
        let out2 = opt2
            .optimize(&opt2.sign(&candidate2).unwrap(), &reuse2, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out2.matched_views.is_empty());
        assert!(!out2.logical.uses_views());
    }

    #[test]
    fn semantic_match_respects_prover_veto() {
        #[derive(Debug)]
        struct RefuseAll;
        impl crate::containment::ContainmentProver for RefuseAll {
            fn prove(
                &self,
                _view: &Arc<LogicalPlan>,
                _candidate: &Arc<LogicalPlan>,
            ) -> std::result::Result<
                crate::containment::ContainmentProof,
                crate::containment::ContainmentRefusal,
            > {
                Err(crate::containment::ContainmentRefusal {
                    code: "CV061",
                    rule: "predicate-implication",
                    reason: "always refuse".into(),
                })
            }
        }
        let mut opt = optimizer();
        opt.set_prover(Arc::new(RefuseAll));
        let (_, reuse, candidate) = semantic_fixture(&opt);
        let out = opt
            .optimize(&opt.sign(&candidate).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out.matched_views.is_empty());
        assert!(!out.logical.uses_views());
    }

    #[test]
    fn semantic_match_is_cost_gated() {
        let mut opt = optimizer();
        opt.set_prover(Arc::new(FilterResidualProver));
        let (view_sig, mut reuse, candidate) = semantic_fixture(&opt);
        reuse.semantic.get_mut(&view_sig).unwrap().meta = ViewMeta::hot(1 << 30, 1 << 62);
        let out = opt
            .optimize(&opt.sign(&candidate).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert!(out.matched_views.is_empty());
        assert!(!out.logical.uses_views());
    }

    #[test]
    fn build_captures_pure_defining_plan() {
        let opt = optimizer();
        let sig = shared_sig(&opt);
        let mut reuse = ReuseContext::empty();
        reuse.to_build.insert(sig);
        let out = opt
            .optimize(&opt.sign(&query()).unwrap(), &reuse, &scan_stats, &mut AlwaysGrant)
            .unwrap();
        assert_eq!(out.built_plans.len(), 1);
        let (plan_sig, plan) = &out.built_plans[0];
        assert_eq!(*plan_sig, sig);
        assert_eq!(plan_signature(plan, &opt.cfg.sig, SigMode::Strict), Some(sig));
        assert!(super::plan_is_pure(plan));
    }

    #[test]
    fn join_algo_selection() {
        let opt = optimizer();
        // customer(10k) ⋈ sales(200k) with merge threshold 120k → Merge.
        let big = shared_subplan();
        let phys = opt.to_physical(&normalize(&big, &opt.cfg.sig).unwrap(), &scan_stats).unwrap();
        let counts = phys.join_algo_counts();
        assert_eq!(counts.total(), 1);
        assert_eq!(counts.merge, 1);

        // Tiny side → loop join.
        let tiny_stats = |name: &str| match name {
            "sales" => Some((100.0, 10_000.0)),
            "customer" => Some((10.0, 400.0)),
            _ => None,
        };
        let phys2 = opt.to_physical(&normalize(&big, &opt.cfg.sig).unwrap(), &tiny_stats).unwrap();
        assert_eq!(phys2.join_algo_counts().loop_, 1);

        // Mid-size both sides → hash join.
        let mid_stats = |name: &str| match name {
            "sales" => Some((50_000.0, 5_000_000.0)),
            "customer" => Some((5_000.0, 200_000.0)),
            _ => None,
        };
        let phys3 = opt.to_physical(&normalize(&big, &opt.cfg.sig).unwrap(), &mid_stats).unwrap();
        assert_eq!(phys3.join_algo_counts().hash, 1);
    }

    #[test]
    fn partition_counts_track_estimates() {
        let opt = optimizer();
        let phys =
            opt.to_physical(&normalize(&query(), &opt.cfg.sig).unwrap(), &scan_stats).unwrap();
        // sales scan: 200k rows / 2.5k per partition = 80 partitions.
        fn find_scan(p: &PhysicalPlan) -> Option<usize> {
            if let PhysicalPlan::TableScan { dataset, partitions, .. } = p {
                if dataset == "sales" {
                    return Some(*partitions);
                }
            }
            p.children().iter().find_map(|c| find_scan(c))
        }
        assert_eq!(find_scan(&phys), Some(80));
    }
}
